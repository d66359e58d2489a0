package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"tsplit/internal/core"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// Config tunes a planning server. The zero value is usable: every
// field has a production default.
type Config struct {
	// CacheEntries bounds each content-addressed response cache — the
	// /v1/plan bodies and, separately, the /v1/peak bodies (default 512
	// entries each).
	CacheEntries int
	// WorkloadEntries bounds the prepared-workload cache (default 32).
	WorkloadEntries int
	// MaxConcurrent bounds simultaneous runs — a /v1/plan miss's planner
	// run or a /v1/peak miss's plan + simulation (default GOMAXPROCS).
	// Cache hits and coalesced waits, on either endpoint, do not occupy
	// a slot. The same number, counted separately, bounds simultaneous
	// workload builds.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a run slot; one more sheds
	// with 429 (default 4×MaxConcurrent).
	MaxQueue int
	// RequestTimeout caps the time one request may spend waiting: for
	// its workload's build, in the admission queue, on an in-flight run
	// (0 = no timeout). Expired requests answer 503.
	RequestTimeout time.Duration
	// RetryAfterSeconds is the Retry-After hint on 429 responses
	// (default 1).
	RetryAfterSeconds int

	// Metrics receives every serve metric and backs GET /metrics
	// (default: a fresh registry).
	Metrics *obs.Registry
	// Clock times requests and planner runs for the latency
	// histograms; tests inject a fake (default obs.Wall). It never
	// influences what a request returns.
	Clock obs.Clock
	// Trace, when set, records one span per request — serve.request on
	// /v1/plan, serve.peak on /v1/peak — carrying the key and a cache
	// attribute (hit | miss | coalesced), with a serve.plan child per
	// /v1/plan planner run.
	Trace *obs.Tracer
	// Flight, when set, receives serve.cache.hit/miss/evict (plan
	// bodies), serve.peak.cache.hit/miss/evict (peak bodies),
	// serve.coalesce, and serve.shed events — the stream tsplit-doctor
	// reads out of a dump.
	Flight *obs.Flight

	// testHookPlanStart, when set (tests only), runs in the leader of
	// every miss on either endpoint, once it holds its slot and before
	// any planning work, with the plan key. Tests use it to hold slots
	// open deterministically.
	testHookPlanStart func(key string)
	// testHookBuildStart, when set (tests only), runs in the leader of
	// every workload build, once it holds its build slot and before it
	// builds, with the workload id.
	testHookBuildStart func(id string)
}

// Server is the planning service: an http.Handler exposing
// POST /v1/plan, POST /v1/peak, GET /healthz, and GET /metrics, with a
// content-addressed response cache per endpoint, request coalescing,
// and admission control in front of the planner and the simulator.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	clock obs.Clock
	mux   *http.ServeMux

	plans, peaks endpoint
	workloads    *workloadCache

	sem chan struct{} // run slots; len(sem) == running leaders

	mu        sync.Mutex
	waiting   int  // lint:guardedby mu — requests queued for a run slot
	inflightN int  // lint:guardedby mu — requests currently being handled
	draining  bool // lint:guardedby mu — Drain() called; new requests answer 503

	inflight sync.WaitGroup
}

// New builds a Server from cfg, applying defaults to zero fields.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.Wall
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Metrics,
		clock:     cfg.Clock,
		workloads: newWorkloadCache(cfg),
		sem:       make(chan struct{}, cfg.MaxConcurrent),
	}
	onJoin := func(key string) {
		s.reg.Add("tsplit_serve_coalesced_total", 1)
		s.cfg.Flight.Record("serve.coalesce", "joined in-flight run", obs.L("key", key))
	}
	s.plans = endpoint{
		cache:       newPlanCache(cfg.CacheEntries, "tsplit_serve_cache", "serve.cache", "plan", s.reg, cfg.Flight),
		group:       newFlightGroup[[]byte](onJoin),
		run:         s.handlePlan,
		cacheHeader: true,
	}
	s.peaks = endpoint{
		cache:      newPlanCache(cfg.CacheEntries, "tsplit_serve_peak_cache", "serve.peak.cache", "peak", s.reg, cfg.Flight),
		group:      newFlightGroup[[]byte](onJoin),
		run:        s.handlePeak,
		hitSeconds: "tsplit_serve_peak_seconds",
	}
	s.reg.SetHelp("tsplit_serve_requests_total", "Requests by final HTTP status code.")
	s.reg.SetHelp("tsplit_serve_coalesced_total", "Requests, on either endpoint, that joined another request's in-flight run.")
	s.reg.SetHelp("tsplit_serve_planner_runs_total", "Actual /v1/plan planner executions (distinct keys planned).")
	s.reg.SetHelp("tsplit_serve_shed_total", "Requests shed with 429 because the admission queue was full.")
	s.reg.SetHelp("tsplit_serve_inflight", "Requests currently being handled.")
	s.reg.SetHelp("tsplit_serve_request_seconds", "End-to-end request latency.")
	s.reg.SetHelp("tsplit_serve_plan_seconds", "Planner-run latency (/v1/plan cache misses only).")
	s.reg.SetHelp("tsplit_serve_peak_seconds", "Time to obtain a /v1/peak answer once the request is keyed: plan + simulation on a cache miss, the lookup on a hit.")
	s.reg.SetHelp("tsplit_simpool_gets_total", "Simulators borrowed from per-workload SimPools.")
	s.reg.SetHelp("tsplit_simpool_reuse_hits_total", "SimPool borrows that recycled a warm arena instead of allocating one.")
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.accept("serve.request", &s.plans))
	mux.HandleFunc("/v1/peak", s.accept("serve.peak", &s.peaks))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Metrics returns the server's registry (the same one GET /metrics
// exposes).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting new requests (they answer 503) and blocks
// until every in-flight request has completed — the graceful-shutdown
// half that http.Server.Shutdown cannot see when the handler runs
// behind a test harness or another mux.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
}

// begin registers one in-flight request unless the server is
// draining. The Add happens under the same lock that Drain uses to
// flip the flag, so Drain's Wait covers every admitted request.
func (s *Server) begin() bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return false
	}
	s.inflight.Add(1)
	s.inflightN++
	n := s.inflightN
	s.mu.Unlock()
	s.reg.Set("tsplit_serve_inflight", float64(n))
	return true
}

// end balances begin.
func (s *Server) end() {
	s.mu.Lock()
	s.inflightN--
	n := s.inflightN
	s.mu.Unlock()
	s.reg.Set("tsplit_serve_inflight", float64(n))
	s.inflight.Done()
}

// admit acquires a run slot, queueing up to MaxQueue requests
// when all slots are busy. It returns a release function, or the
// refusal: 429 when the queue is full (the request is shed), 503 when
// ctx expires while queued.
func (s *Server) admit(ctx context.Context, key string) (release func(), herr *httpError) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	s.mu.Lock()
	if s.waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.reg.Add("tsplit_serve_shed_total", 1)
		s.cfg.Flight.Record("serve.shed", "admission queue full", obs.L("key", key))
		return nil, &httpError{status: http.StatusTooManyRequests,
			code: "overloaded", message: fmt.Sprintf("admission queue full (%d running, %d queued)",
				s.cfg.MaxConcurrent, s.cfg.MaxQueue)}
	}
	s.waiting++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
	}()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, errTimeout("in the admission queue")
	}
}

// maxBodyBytes bounds a request body; a larger one answers 413.
const maxBodyBytes = 1 << 20

// accepted is a planning request that has passed every step /v1/plan
// and /v1/peak share: it is decoded and validated, its workload is
// resolved, and its plan key is known.
type accepted struct {
	w     http.ResponseWriter
	start time.Time
	sp    *obs.Span       // the request span, named by the endpoint
	ctx   context.Context // carries RequestTimeout
	req   *PlanRequest
	wl    *prepared
	key   string
}

// accept returns the handler of one planning endpoint. It runs the
// shared front of the pipeline — drain gate, request span, POST check,
// bounded body read, decode, timeout, workload resolution, plan key —
// answers every failure of those itself, and hands what passed to
// answer.
func (s *Server) accept(spanName string, ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clock()
		if !s.begin() {
			s.finish(w, start, nil, &httpError{status: http.StatusServiceUnavailable,
				code: "draining", message: "server is draining"})
			return
		}
		defer s.end()

		sp := s.cfg.Trace.StartSpan(spanName)
		defer sp.End()

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.finish(w, start, sp, &httpError{status: http.StatusMethodNotAllowed,
				code: "method_not_allowed", message: "use POST"})
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				s.finish(w, start, sp, &httpError{status: http.StatusRequestEntityTooLarge,
					code: "payload_too_large", message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
				return
			}
			s.finish(w, start, sp, errBadRequest("reading body: %v", err))
			return
		}
		req, herr := decodeRequest(body)
		if herr != nil {
			s.finish(w, start, sp, herr)
			return
		}

		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}

		wl, how, herr := s.workloads.get(ctx, req)
		sp.SetAttr("workload", how)
		if herr != nil {
			s.finish(w, start, sp, herr)
			return
		}
		// The hold outlives every use of the workload: a run this
		// request leads runs inside answer, and a run it waits on
		// belongs to a request holding the workload itself.
		defer wl.drop()
		key := planKey(wl.digest, wl.Dev, req.Options)
		sp.SetAttr("key", key)
		s.answer(accepted{w: w, start: start, sp: sp, ctx: ctx, req: req, wl: wl, key: key}, ep)
	}
}

// endpoint is everything that differs between /v1/plan and /v1/peak
// once a request is accepted. Each has its own body cache and its own
// singleflight table: a plan and a peak of one key carry different
// bodies, so neither a cache entry nor an in-flight result may cross.
type endpoint struct {
	cache *planCache
	group *flightGroup[[]byte]
	// run is the leader's run step: produce the key's response body.
	run func(accepted) ([]byte, *httpError)
	// cacheHeader: 200s carry X-Tsplit-Cache (hit | miss | coalesced).
	// Without it the cache state shows in the request span's "cache"
	// attribute, the counters and the flight events only.
	cacheHeader bool
	// hitSeconds, when set, names the histogram a hit's lookup time
	// goes to: the series the run step observes into, which then holds
	// one observation per request that obtained its body itself, by
	// run or by lookup. /v1/peak sets it because bench/ reads the count
	// of tsplit_serve_peak_seconds as one per answered peak request.
	hitSeconds string
}

// answer serves an accepted request of either endpoint: from the
// endpoint's cache — no admission, no planner, no simulator, the
// stored bytes answer the request — or from one coalesced run.
func (s *Server) answer(a accepted, ep *endpoint) {
	var lookupStart time.Time
	if ep.hitSeconds != "" {
		lookupStart = s.clock()
	}
	body, ok := ep.cache.lookup(a.key)
	state := "hit"
	if !ok {
		var herr *httpError
		if body, state, herr = s.miss(a, ep); herr != nil {
			a.sp.SetAttr("cache", state)
			s.finish(a.w, a.start, a.sp, herr)
			return
		}
	} else if ep.hitSeconds != "" {
		s.reg.Observe(ep.hitSeconds, s.clock().Sub(lookupStart).Seconds())
	}
	a.sp.SetAttr("cache", state)
	h := a.w.Header()
	h.Set("Content-Type", "application/json")
	if ep.cacheHeader {
		h.Set("X-Tsplit-Cache", state)
	}
	h.Set("X-Tsplit-Key", a.key)
	a.w.WriteHeader(http.StatusOK)
	_, _ = a.w.Write(body) // client gone: nothing useful to do
	s.observe(a.start, http.StatusOK)
}

// miss obtains the body of a key the cache does not hold: as the
// singleflight leader, or by waiting on the leader already running.
// The leader closure is built here, off the hit path.
func (s *Server) miss(a accepted, ep *endpoint) ([]byte, string, *httpError) {
	body, herr, coalesced, waitErr := ep.group.do(a.ctx, a.key, func() ([]byte, *httpError) { return s.lead(a, ep) })
	state := "miss"
	if coalesced {
		state = "coalesced"
	}
	if waitErr != nil {
		return nil, state, errTimeout("waiting for the in-flight run")
	}
	return body, state, herr
}

// lead is the singleflight leader body: acquire a run slot (admission
// control), run the endpoint's step, and cache the body. Errors (422,
// 429, 503) are shared with the waiters but never cached.
func (s *Server) lead(a accepted, ep *endpoint) ([]byte, *httpError) {
	release, herr := s.admit(a.ctx, a.key)
	if herr != nil {
		return nil, herr
	}
	defer release()
	if hook := s.cfg.testHookPlanStart; hook != nil {
		hook(a.key)
	}

	// Double-check the cache: a previous leader may have finished
	// between our miss and this run.
	if cached, ok := ep.cache.get(a.key); ok {
		return cached, nil
	}
	body, herr := ep.run(a)
	if herr != nil {
		return nil, herr
	}
	ep.cache.put(a.key, body)
	return body, nil
}

// handlePlan is /v1/plan's run step: plan the requested policy and
// encode the reply — the plan, its predicted peak and the optional
// report — in one pass into one buffer.
func (s *Server) handlePlan(a accepted) ([]byte, *httpError) {
	sp := a.sp.StartSpan("serve.plan")
	defer sp.End()
	planStart := s.clock()
	plan, report, herr := s.buildPlan(a.req.Options, a.wl)
	var body []byte
	if herr == nil {
		body, herr = encodePlanResponse(a, plan, report)
	}
	s.reg.Observe("tsplit_serve_plan_seconds", s.clock().Sub(planStart).Seconds())
	s.reg.Add("tsplit_serve_planner_runs_total", 1)
	return body, herr
}

// handlePeak is /v1/peak's run step: plan the requested policy, then
// run the plan through the simulator on the workload's pooled arenas,
// with the policy's recompute strategy (prep.Policies), once: no
// reserve ladder.
// The peak it returns is the peak a fresh simulation (and the verify
// tooling) reports — the fleet-packing signal the planner's static
// estimate approximates. Plan and peak are pure functions of the key,
// so the body is cached like a plan's, in the peak cache: the
// /v1/plan entries (and their goldens) are untouched by peak traffic.
func (s *Server) handlePeak(a accepted) ([]byte, *httpError) {
	peakStart := s.clock()
	opts := a.req.Options
	opts.Report = false // the response carries no report; the key still echoes the request's
	plan, _, herr := s.buildPlan(opts, a.wl)
	if herr != nil {
		return nil, herr
	}
	wl := a.wl
	simr := wl.sims.Get(wl.G, wl.Sched, wl.Lv, plan, wl.Dev,
		sim.Options{Capacity: opts.CapacityBytes, Recompute: prep.RecomputeOf(plan)})
	res, rerr := simr.Run()
	wl.sims.Put(simr)
	s.reg.Observe("tsplit_serve_peak_seconds", s.clock().Sub(peakStart).Seconds())
	if rerr != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity,
			code: "infeasible", message: rerr.Error()}
	}
	return marshalBody(&PeakResponse{
		Key:                a.key,
		Model:              a.req.displayName(),
		Device:             wl.Dev.Name,
		Policy:             opts.Policy,
		SimulatedPeakBytes: res.PeakBytes,
		SimulatedPeakGiB:   float64(res.PeakBytes) / (1 << 30),
		PlannerPeakBytes:   plan.PredictedPeak,
	})
}

// marshalBody serializes a success response value.
func marshalBody(resp any) ([]byte, *httpError) {
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, errInternal("encoding response: %v", err)
	}
	return body, nil
}

// errInternal is the 500 of a success body that cannot be encoded.
func errInternal(format string, args ...any) *httpError {
	return &httpError{status: http.StatusInternalServerError, code: "internal", message: fmt.Sprintf(format, args...)}
}

// buildPlan plans the requested policy (on pooled planner arenas for
// the tsplit policies), returning the plan and, when asked for, its
// report.
func (s *Server) buildPlan(o PlanOptions, wl *prepared) (*core.Plan, *core.PlanReport, *httpError) {
	plan, report, err := wl.PlanPolicy(o.Policy, core.Options{
		Capacity:      o.CapacityBytes,
		DisableSplit:  o.DisableSplit,
		PNums:         o.PNums,
		SafetyMargin:  o.SafetyMargin,
		CollectReport: o.Report,
		Clock:         s.clock,
	})
	if err != nil {
		return nil, nil, &httpError{status: http.StatusUnprocessableEntity,
			code: "infeasible", message: err.Error()}
	}
	return plan, report, nil
}

// A /v1/plan body's buffer holds planEnvelopeBytes for the envelope
// and planEntryBytes per plan entry, a tensor decision or a split (zoo
// plans measure 100–115 bytes an entry), so a body rarely regrows it.
const (
	planEnvelopeBytes = 448
	planEntryBytes    = 120
)

// encodePlanResponse writes the /v1/plan body: the bytes json.Marshal
// writes for the request's PlanResponse, whose Plan is the compact
// core.AppendPlanJSON encoding, appended field by field into one
// buffer sized from the plan. Only the report goes through
// encoding/json.
func encodePlanResponse(a accepted, plan *core.Plan, report *core.PlanReport) ([]byte, *httpError) {
	if t := plan.PredictedTime; math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, errInternal("encoding response: predicted time %v is not a JSON number", t)
	}
	var reportJSON []byte
	if report != nil {
		var err error
		if reportJSON, err = json.Marshal(report); err != nil {
			return nil, errInternal("encoding response: %v", err)
		}
	}
	b := make([]byte, 0, planEnvelopeBytes+planEntryBytes*(len(plan.Tensors)+len(plan.Splits))+len(reportJSON))
	b = append(b, `{"key":`...)
	b = core.AppendJSONString(b, a.key)
	b = append(b, `,"model":`...)
	b = core.AppendJSONString(b, a.req.displayName())
	b = append(b, `,"device":`...)
	b = core.AppendJSONString(b, a.wl.Dev.Name)
	b = append(b, `,"policy":`...)
	b = core.AppendJSONString(b, a.req.Options.Policy)
	b = append(b, `,"predicted_peak_bytes":`...)
	b = strconv.AppendInt(b, plan.PredictedPeak, 10)
	b = append(b, `,"predicted_peak_gib":`...)
	b = core.AppendJSONFloat(b, float64(plan.PredictedPeak)/(1<<30))
	b = append(b, `,"predicted_time_seconds":`...)
	b = core.AppendJSONFloat(b, plan.PredictedTime)
	b = append(b, `,"plan":`...)
	b = core.AppendPlanJSON(b, plan)
	if reportJSON != nil {
		b = append(b, `,"report":`...)
		b = append(b, reportJSON...)
	}
	return append(b, '}'), nil
}

// finish sends a structured error response and records the request
// metrics. sp may be nil (pre-span failures).
func (s *Server) finish(w http.ResponseWriter, start time.Time, sp *obs.Span, herr *httpError) {
	if sp != nil {
		sp.SetAttr("error", herr.code)
	}
	if herr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(herr.status)
	body, err := json.Marshal(ErrorBody{Error: ErrorDetail{Code: herr.code, Message: herr.message}})
	if err == nil {
		_, _ = w.Write(body) // client gone: nothing useful to do
	}
	s.observe(start, herr.status)
}

// observe records the per-request metrics.
func (s *Server) observe(start time.Time, status int) {
	s.reg.Add("tsplit_serve_requests_total", 1, obs.L("code", strconv.Itoa(status)))
	s.reg.Observe("tsplit_serve_request_seconds", s.clock().Sub(start).Seconds())
}

// handleHealthz is GET /healthz: a liveness probe with cache
// occupancy.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	plans, planBytes := s.plans.cache.stats()
	peaks, _ := s.peaks.cache.stats()
	s.mu.Lock()
	draining := s.draining
	waiting := s.waiting
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, err := json.Marshal(map[string]any{
		"status":           status,
		"plans_cached":     plans,
		"plan_cache_bytes": planBytes,
		"peaks_cached":     peaks,
		"workloads_cached": s.workloads.len(),
		"queued":           waiting,
	})
	if err == nil {
		_, _ = w.Write(body) // client gone: nothing useful to do
	}
}

// handleMetrics is GET /metrics: the Prometheus text exposition of
// the server's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(buf.Bytes()) // client gone: nothing useful to do
}
