package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/sim"
)

// postPeak sends one peak request and returns the recorder.
func postPeak(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/peak", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodePeak(t *testing.T, w *httptest.ResponseRecorder) *PeakResponse {
	t.Helper()
	var resp PeakResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not a PeakResponse: %v\nbody: %s", err, w.Body.String())
	}
	return &resp
}

// TestPeakEndpointMatchesSimulator checks POST /v1/peak against an
// out-of-band full simulation of the same plan: the endpoint's
// simulated peak must be the exact Run() peak, a second key on the
// workload must recycle its simulator arena (reuse-hit metric), and a
// repeated key must not reach the simulator at all.
func TestPeakEndpointMatchesSimulator(t *testing.T) {
	s := New(Config{})
	body := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"}`

	w := postPeak(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodePeak(t, w)
	if resp.Policy != "tsplit" || resp.SimulatedPeakBytes <= 0 {
		t.Fatalf("bad response: %+v", resp)
	}

	// Reproduce the plan over /v1/plan and simulate it independently.
	pw := postPlan(t, s, body)
	if pw.Code != http.StatusOK {
		t.Fatalf("plan status %d: %s", pw.Code, pw.Body.String())
	}
	planResp := decodeResponse(t, pw)
	if resp.PlannerPeakBytes != planResp.PredictedPeakBytes {
		t.Fatalf("planner peak diverges from /v1/plan: %d vs %d",
			resp.PlannerPeakBytes, planResp.PredictedPeakBytes)
	}
	if resp.Key != planResp.Key {
		t.Fatalf("peak key %s != plan key %s for the same request", resp.Key, planResp.Key)
	}

	g, err := models.Build("vgg16", models.Config{BatchSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	// The serve workload cache holds the same prepared graph the
	// endpoint planned against; rebuild is only for the simulator run.
	wl, _, herr := s.workloads.get(context.Background(), &PlanRequest{Model: "vgg16",
		Config: ModelConfig{BatchSize: 96}, Device: "GTX 1080Ti",
		Options: PlanOptions{Policy: "tsplit"}})
	if herr != nil {
		t.Fatalf("workload: %v", herr)
	}
	pl := wl.Planners.Get(core.Options{})
	plan, err := pl.Plan()
	wl.Planners.Put(pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, sched, lv, plan, wl.Dev, sim.Options{Recompute: sim.LRURecompute}).Run()
	if err != nil {
		t.Fatalf("reference simulation: %v", err)
	}
	if resp.SimulatedPeakBytes != res.PeakBytes {
		t.Fatalf("/v1/peak returned %d, full simulation peaks at %d",
			resp.SimulatedPeakBytes, res.PeakBytes)
	}

	// A second key on the same workload (another capacity) is a miss of
	// its own and must run on the warm arena.
	other := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti","options":{"capacity_bytes":10737418240}}`
	if w2 := postPeak(t, s, other); w2.Code != http.StatusOK {
		t.Fatalf("second-key peak status %d: %s", w2.Code, w2.Body.String())
	}
	gets := s.Metrics().Counter("tsplit_simpool_gets_total")
	if gets < 2 {
		t.Fatalf("simpool gets_total = %d, want >= 2", gets)
	}
	if reuse := s.Metrics().Counter("tsplit_simpool_reuse_hits_total"); reuse < 1 {
		t.Fatalf("simpool reuse_hits_total = %d, want >= 1", reuse)
	}

	// The repeated key is answered from the peak cache: no simulator is
	// borrowed, and the only new tsplit_serve_peak_seconds observation is
	// the hit's lookup.
	observed := s.Metrics().Histogram("tsplit_serve_peak_seconds").Count
	w3 := postPeak(t, s, body)
	if w3.Code != http.StatusOK || !bytes.Equal(w3.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("repeated key: status %d, body %s; want the first answer %s", w3.Code, w3.Body.String(), w.Body.String())
	}
	if got := s.Metrics().Counter("tsplit_simpool_gets_total"); got != gets {
		t.Fatalf("repeated key borrowed a simulator: gets_total %d -> %d", gets, got)
	}
	if got := s.Metrics().Histogram("tsplit_serve_peak_seconds").Count; got != observed+1 {
		t.Fatalf("tsplit_serve_peak_seconds count %d -> %d, want one lookup observation", observed, got)
	}

	// A baseline's peak is the policy table's simulation of it: the
	// checkpoints plan runs memory-centric, as the evaluation runs it.
	cw := postPeak(t, s, `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti","options":{"policy":"checkpoints"}}`)
	if cw.Code != http.StatusOK {
		t.Fatalf("checkpoints status %d: %s", cw.Code, cw.Body.String())
	}
	_, cres, err := wl.RunPolicy("checkpoints", core.Options{}, sim.Options{})
	if err != nil {
		t.Fatalf("checkpoints reference run: %v", err)
	}
	if got := decodePeak(t, cw).SimulatedPeakBytes; got != cres.PeakBytes {
		t.Fatalf("/v1/peak returned %d for checkpoints, the policy table's simulation peaks at %d", got, cres.PeakBytes)
	}
}

// TestPeakWithReportOption: "report" is part of the plan key, so
// /v1/peak echoes the key /v1/plan gives the same request, and the
// answer is the one the request gets without it.
func TestPeakWithReportOption(t *testing.T) {
	s := New(Config{})
	base := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"`
	plain := decodePeak(t, postPeak(t, s, base+`}`))
	withBody := base + `,"options":{"report":true}}`
	w := postPeak(t, s, withBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	with := decodePeak(t, w)
	if want := decodeResponse(t, postPlan(t, s, withBody)).Key; with.Key != want || with.Key == plain.Key {
		t.Fatalf("key %s, want the report:true plan key %s (plain key %s)", with.Key, want, plain.Key)
	}
	if with.SimulatedPeakBytes != plain.SimulatedPeakBytes || with.PlannerPeakBytes != plain.PlannerPeakBytes {
		t.Fatalf("report option changed the answer: %+v vs %+v", with, plain)
	}
}

// peakCounters reads the peak cache's series and the run-side counters
// a /v1/peak request may move.
type peakCounters struct{ hits, misses, evictions, simGets int64 }

func readPeakCounters(s *Server) peakCounters {
	m := s.Metrics()
	return peakCounters{
		hits:      m.Counter("tsplit_serve_peak_cache_hits_total"),
		misses:    m.Counter("tsplit_serve_peak_cache_misses_total"),
		evictions: m.Counter("tsplit_serve_peak_cache_evictions_total"),
		simGets:   m.Counter("tsplit_simpool_gets_total"),
	}
}

// spanAttr returns the named attribute of the i-th root span.
func spanAttr(t *testing.T, tr *obs.Tracer, i int, name string) string {
	t.Helper()
	tree := tr.Tree()
	if i >= len(tree) {
		t.Fatalf("tracer has %d root spans, want more than %d", len(tree), i)
	}
	for _, a := range tree[i].Attrs {
		if a.Key == name {
			return a.Value
		}
	}
	return ""
}

// TestPeakHitIsByteIdentical: a repeated /v1/peak key is served from
// the peak cache — the miss's bytes, the same X-Tsplit-Key, never an
// X-Tsplit-Cache header — without a leader: no admission, no planner,
// no simulator. The cache state shows in the span, the peak-cache
// counters and the peak flight kinds, and leaves the plan-side ones
// alone.
func TestPeakHitIsByteIdentical(t *testing.T) {
	tr := obs.NewTracer(nil)
	fl := obs.NewFlight(0, nil)
	leaders := 0
	cfg := Config{Trace: tr, Flight: fl}
	cfg.testHookPlanStart = func(string) { leaders++ }
	s := New(cfg)
	body := `{"model":"vgg16","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":6442450944}}`

	first := postPeak(t, s, body)
	if first.Code != http.StatusOK {
		t.Fatalf("miss status %d: %s", first.Code, first.Body.String())
	}
	after := readPeakCounters(s)
	if after.hits != 0 || after.misses != 1 || after.simGets != 1 || leaders != 1 {
		t.Fatalf("after the miss: %+v, %d leaders; want 0 hits, 1 miss, 1 simulator run, 1 leader", after, leaders)
	}
	// Different spelling, same content: the variant is the same key.
	variant := `{"device":"TITAN RTX","options":{"policy":"tsplit","capacity_bytes":6442450944},"config":{"batch_size":64,"param_scale":0},"model":"vgg16"}`
	for i, req := range []string{body, variant} {
		w := postPeak(t, s, req)
		if w.Code != http.StatusOK {
			t.Fatalf("hit %d status %d: %s", i, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("hit %d bytes differ from the miss that created the entry", i)
		}
		if got, want := w.Header().Get("X-Tsplit-Key"), first.Header().Get("X-Tsplit-Key"); got != want || got != decodePeak(t, w).Key {
			t.Fatalf("hit %d X-Tsplit-Key = %q, want the miss's %q (also the body's key)", i, got, want)
		}
	}
	for i, w := range []*httptest.ResponseRecorder{first, postPeak(t, s, body)} {
		if _, ok := w.Header()["X-Tsplit-Cache"]; ok {
			t.Fatalf("/v1/peak response %d carries an X-Tsplit-Cache header", i)
		}
	}
	got := readPeakCounters(s)
	if got.hits != 3 || got.misses != 1 || got.simGets != 1 || leaders != 1 {
		t.Fatalf("after three hits: %+v, %d leaders; want 3 hits, 1 miss and no further run", got, leaders)
	}
	if h := healthz(t, s); h["peaks_cached"].(float64) != 1 || h["plans_cached"].(float64) != 0 {
		t.Fatalf("healthz occupancy: %v, want 1 peak and 0 plans", h)
	}
	if m := s.Metrics(); m.Counter("tsplit_serve_cache_hits_total")+m.Counter("tsplit_serve_cache_misses_total") != 0 ||
		m.Gauge("tsplit_serve_peak_cache_entries") != 1 || m.Gauge("tsplit_serve_cache_entries") != 0 {
		t.Fatal("peak traffic moved the plan cache's series, or the peak cache's entries gauge is not 1")
	}
	if miss, hit := spanAttr(t, tr, 0, "cache"), spanAttr(t, tr, 1, "cache"); miss != "miss" || hit != "hit" {
		t.Fatalf("serve.peak span cache attributes = %q then %q, want miss then hit", miss, hit)
	}
	kinds := map[string]int{}
	for _, ev := range fl.Events() {
		kinds[ev.Kind]++
	}
	if kinds["serve.peak.cache.miss"] != 1 || kinds["serve.peak.cache.hit"] != 3 ||
		kinds["serve.cache.miss"]+kinds["serve.cache.hit"] != 0 {
		t.Fatalf("flight kinds: %v, want 1 serve.peak.cache.miss, 3 serve.peak.cache.hit and no serve.cache.*", kinds)
	}
}

// TestPeakInfeasibleIsNotCached: a 422 is the leader's answer to its
// own request and its waiters only; the next request of the key runs
// again.
func TestPeakInfeasibleIsNotCached(t *testing.T) {
	leaders := 0
	var cfg Config
	cfg.testHookPlanStart = func(string) { leaders++ }
	s := New(cfg)
	body := `{"model":"bert-large","config":{"batch_size":512},"device":"P100","options":{"capacity_bytes":1048576}}`
	for i := 1; i <= 2; i++ {
		w := postPeak(t, s, body)
		if w.Code != http.StatusUnprocessableEntity || decodeError(t, w).Error.Code != "infeasible" {
			t.Fatalf("request %d: status %d, body %s; want 422 infeasible", i, w.Code, w.Body.String())
		}
		if leaders != i {
			t.Fatalf("request %d: %d runs so far, want %d (a 422 must not be cached)", i, leaders, i)
		}
	}
	if got := readPeakCounters(s); got.hits != 0 || got.misses != 2 {
		t.Fatalf("peak cache counters %+v, want 0 hits and 2 misses", got)
	}
	if h := healthz(t, s); h["peaks_cached"].(float64) != 0 {
		t.Fatalf("peaks_cached = %v, want 0", h["peaks_cached"])
	}
}

// TestPeakCacheEvictsOnlyPeaks: the peak cache is its own LRU bounded
// by CacheEntries. A third peak key evicts the oldest peak — under the
// peak cache's own flight kind and counter — and never a plan.
func TestPeakCacheEvictsOnlyPeaks(t *testing.T) {
	fl := obs.NewFlight(0, nil)
	s := New(Config{CacheEntries: 2, Flight: fl})
	postTo(s, "/v1/plan", specReq(1))
	postTo(s, "/v1/plan", specReq(2)) // plan cache full: [2 1]
	keyA := postTo(s, "/v1/peak", specReq(1)).key
	postTo(s, "/v1/peak", specReq(2))
	postTo(s, "/v1/peak", specReq(3)) // peak cache: evicts A -> [3 2]

	if plans := eventKeys(fl, "serve.cache.evict"); len(plans) != 0 {
		t.Fatalf("peak traffic evicted plans: %v", plans)
	}
	evicted := eventKeys(fl, "serve.peak.cache.evict")
	if len(evicted) != 1 || evicted[0] != keyA {
		t.Fatalf("serve.peak.cache.evict keys %v, want exactly the oldest peak key %s", evicted, keyA)
	}
	if got := readPeakCounters(s); got.evictions != 1 {
		t.Fatalf("tsplit_serve_peak_cache_evictions_total = %d, want 1", got.evictions)
	}
	if got := s.Metrics().Counter("tsplit_serve_cache_evictions_total"); got != 0 {
		t.Fatalf("tsplit_serve_cache_evictions_total = %d, want 0", got)
	}
	h := healthz(t, s)
	if h["plans_cached"].(float64) != 2 || h["peaks_cached"].(float64) != 2 {
		t.Fatalf("healthz occupancy: %v, want 2 plans and 2 peaks", h)
	}
	for _, seed := range []int{1, 2} {
		if got := postTo(s, "/v1/plan", specReq(seed)).cache; got != "hit" {
			t.Fatalf("plan of seed %d after the peak eviction: X-Tsplit-Cache %q, want hit", seed, got)
		}
	}
}
