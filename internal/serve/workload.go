package serve

import (
	"context"
	"crypto/sha256"
	"net/http"
	"sync"
	"sync/atomic"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/workload"
)

// prepared is one resolved workload, named by the request's display
// name, plus what serve alone keeps for it: the graph's content digest
// (computed once — it feeds every plan key for this workload) and its
// users. Its planner and simulator arenas are the workload's own
// (prep.Prepared), so a slot rebatched for another id keeps them warm.
type prepared struct {
	*prep.Prepared
	digest [sha256.Size]byte

	// refs counts the workload's users: the cache while the workload
	// is resident, and every request holding it. Whoever drops it to
	// zero gives the slot back to its template, which may rebatch it
	// for another id at any time, so a count at zero never rises again.
	refs atomic.Int32
}

// hold takes a hold on w for a request that waited on w's build,
// unless w was released since.
func (w *prepared) hold() bool {
	for {
		n := w.refs.Load()
		if n == 0 {
			return false
		}
		if w.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// drop gives back one reference to w, releasing w's slot with the
// last.
func (w *prepared) drop() {
	if w.refs.Add(-1) == 0 {
		w.Release()
	}
}

// workloadCache memoizes request → prepared workload resolution with
// a bounded LRU. Building a workload (graph construction, scheduling,
// liveness, profiling, digest) costs orders of magnitude more than a
// cache probe, and the digest it yields is what makes plan-cache hits
// cheap: a warm probe never re-hashes the graph.
//
// A zoo model's workloads share a template per (model, configuration
// without the batch, device), held in a second bounded LRU. The first
// build of a template key builds fresh; the second — another batch, or
// the same one after eviction — builds the key's template, and it and
// every later build rebatch from it, into a slot an evicted workload
// of the key released when one is free. A key asked for at one batch
// only thus costs one build, as without templates, and a model asked
// for at many batches costs three, plus a rebatch per batch.
//
// mu covers the LRU probes and puts, never a build: every request of
// both endpoints passes through get before it can compute its key, so
// a build under mu would stall hits on other workloads for its whole
// length. A miss instead builds as the leader
// of a per-workload-id flight — concurrent requests for the same cold
// id wait on that one build — holding one of MaxConcurrent build
// slots, so a burst of distinct cold ids cannot oversubscribe the CPUs
// the planner runs share; a template is built by the leader of a
// per-key flight of its own. Every wait honours the request context.
type workloadCache struct {
	reg   *obs.Registry // build metrics, and each workload's simulator-pool counters
	clock obs.Clock
	// keep is how many released slots a template keeps: as many as
	// builds can run at once, since no more can be taken before
	// another is released.
	keep int

	builds     *flightGroup[*prepared]
	tmplBuilds *flightGroup[*prep.Template]
	slots      chan struct{}   // build slots; len(slots) == builds running
	hook       func(id string) // Config.testHookBuildStart

	mu  sync.Mutex
	lru *lru[*prepared] // lint:guardedby mu
	// templates maps a template key to its template, or to nil when
	// the key has been built once, fresh, and has no template yet.
	templates *lru[*prep.Template] // lint:guardedby mu
}

// newWorkloadCache sizes the cache from a Config whose defaults are
// already applied.
func newWorkloadCache(cfg Config) *workloadCache {
	cfg.Metrics.SetHelp("tsplit_serve_workload_builds_total", "Workloads prepared: requests that named a workload id not resident and led its preparation, a fresh build (graph, schedule, liveness, profile) or a rebatch from the model's template, then a digest.")
	cfg.Metrics.SetHelp("tsplit_serve_workload_build_seconds", "Time to prepare one workload, once the preparation holds its build slot.")
	cfg.Metrics.SetHelp(prep.GraphBuilds, "Graphs the server built: a workload's fresh build, and the two builds behind each model template.")
	cfg.Metrics.SetHelp(prep.WorkloadSlots, "Template slots allocated; a workload rebatched into a slot an evicted workload released allocates none.")
	return &workloadCache{
		reg:        cfg.Metrics,
		clock:      cfg.Clock,
		keep:       cfg.MaxConcurrent,
		builds:     newFlightGroup[*prepared](nil),
		tmplBuilds: newFlightGroup[*prep.Template](nil),
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		hook:       cfg.testHookBuildStart,
		lru:        newLRU[*prepared](cfg.WorkloadEntries, 32),
		templates:  newLRU[*prep.Template](cfg.WorkloadEntries, 32),
	}
}

// probe returns the resident workload under id, marking it most
// recently used, with a hold taken for the caller.
func (wc *workloadCache) probe(id string) (*prepared, bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	w, ok := wc.lru.get(id)
	if ok {
		w.refs.Add(1) // the cache's own reference keeps it above zero
	}
	return w, ok
}

// get resolves a validated request to its prepared workload, with a
// hold the caller gives back with drop once done with the workload.
// state says how: "cached" (resident), "built" (this request led the
// build) or "coalesced" (it waited on another request's build of the
// same id). A failed build is shared with its waiters and not cached:
// the next request for the id builds again. A request whose ctx
// expires while it waits — for the same-id build, a template build or
// a build slot — answers 503.
func (wc *workloadCache) get(ctx context.Context, req *PlanRequest) (*prepared, string, *httpError) {
	id := req.workloadID()
	if w, ok := wc.probe(id); ok {
		return w, "cached", nil
	}
	state := "built"
	w, herr, coalesced, waitErr := wc.builds.do(ctx, id, func() (*prepared, *httpError) {
		select {
		case wc.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, errTimeout("waiting for a workload build slot")
		}
		defer func() { <-wc.slots }()
		if wc.hook != nil {
			wc.hook(id)
		}
		// Double-check the LRU: a previous leader may have finished
		// between our probe and this flight.
		if w, ok := wc.probe(id); ok {
			state = "cached"
			return w, nil
		}
		start := wc.clock()
		w, herr := wc.build(ctx, req)
		wc.reg.Observe("tsplit_serve_workload_build_seconds", wc.clock().Sub(start).Seconds())
		wc.reg.Add("tsplit_serve_workload_builds_total", 1)
		if herr != nil {
			return nil, herr
		}
		w.refs.Store(2) // the cache's and the leader's
		wc.mu.Lock()
		out, displaced := wc.lru.put(id, w)
		wc.mu.Unlock()
		if displaced {
			out.val.drop() // the cache's
		}
		return w, nil
	})
	if coalesced {
		state = "coalesced"
	}
	if waitErr != nil {
		return nil, state, errTimeout("waiting for the workload's in-flight build")
	}
	if herr == nil && coalesced && !w.hold() {
		// The workload was evicted and released before this waiter
		// woke: resolve the id again.
		return wc.get(ctx, req)
	}
	return w, state, herr
}

// build prepares the workload a request names: a spec's graph, or a
// zoo model's template key at its first build, fresh; a later build of
// the key rebatched from the key's template.
func (wc *workloadCache) build(ctx context.Context, req *PlanRequest) (*prepared, *httpError) {
	dev, err := device.ByName(req.Device)
	if err != nil {
		return nil, errBadRequest("unknown device %q", req.Device)
	}
	if req.Spec != nil {
		return buildWorkload(req, dev, wc.reg)
	}
	key := req.templateID()
	t, herr := wc.template(ctx, key, req, dev)
	if herr != nil {
		return nil, herr
	}
	if t != nil {
		return newPrepared(t.Prepare(req.Config.BatchSize, wc.reg), wc.reg), nil
	}
	w, herr := buildWorkload(req, dev, wc.reg)
	if herr == nil {
		wc.mu.Lock()
		if _, ok := wc.templates.get(key); !ok {
			wc.templates.put(key, nil)
		}
		wc.mu.Unlock()
	}
	return w, herr
}

// template returns the template under key, building it if the key was
// built before; nil if this is the key's first build.
func (wc *workloadCache) template(ctx context.Context, key string, req *PlanRequest, dev device.Device) (*prep.Template, *httpError) {
	wc.mu.Lock()
	t, seen := wc.templates.get(key)
	wc.mu.Unlock()
	if t != nil || !seen {
		return t, nil
	}
	t, herr, _, waitErr := wc.tmplBuilds.do(ctx, key, func() (*prep.Template, *httpError) {
		wc.mu.Lock()
		t, _ := wc.templates.get(key)
		wc.mu.Unlock()
		if t != nil {
			return t, nil
		}
		t, err := prep.NewTemplate(req.Model, req.modelConfig(), dev, wc.reg, wc.keep)
		if err != nil {
			return nil, buildError(req.Model, err)
		}
		wc.mu.Lock()
		wc.templates.put(key, t)
		wc.mu.Unlock()
		return t, nil
	})
	if waitErr != nil {
		return nil, errTimeout("waiting for the model's in-flight template build")
	}
	return t, herr
}

// len reports the resident workload count (for /healthz).
func (wc *workloadCache) len() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.lru.len()
}

// buildWorkload constructs the graph a validated request names and
// prepares it for planning and simulation on dev. rec counts the graph
// build and receives the simulator pool's get/reuse counters
// (warm-arena hit rate across requests).
func buildWorkload(req *PlanRequest, dev device.Device, rec obs.Recorder) (*prepared, *httpError) {
	if rec != nil {
		rec.Add(prep.GraphBuilds, 1)
	}
	var g *graph.Graph
	var cfg models.Config
	var err error
	if req.Spec != nil {
		g = workload.RandGraph(req.Spec.Seed)
	} else {
		cfg = req.modelConfig()
		g, err = models.Build(req.Model, cfg)
		if err != nil {
			return nil, buildError(req.Model, err)
		}
	}
	p, err := prep.FromGraph(req.displayName(), g, cfg, dev)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, code: "unschedulable", message: err.Error()}
	}
	return newPrepared(p, rec), nil
}

// buildError answers a failed build of a zoo model: 404 for a model
// the zoo does not have, 422 for a configuration it cannot build (an
// image smaller than the network's receptive field) or schedule. A
// fresh build and a template build answer alike.
func buildError(model string, err error) *httpError {
	if !models.Known(model) {
		return &httpError{status: http.StatusNotFound, code: "unknown_model", message: err.Error()}
	}
	return &httpError{status: http.StatusUnprocessableEntity, code: "unschedulable", message: err.Error()}
}

// newPrepared points a prepared workload's simulator pool at rec and
// digests its graph.
func newPrepared(p *prep.Prepared, rec obs.Recorder) *prepared {
	p.Sims.Obs = rec
	return &prepared{Prepared: p, digest: graphDigest(p.G)}
}
