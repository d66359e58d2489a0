package serve

import (
	"crypto/sha256"
	"net/http"
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/profiler"
	"tsplit/internal/sim"
	"tsplit/internal/workload"
)

// prepared is one resolved workload: the built graph with its
// schedule, liveness, and device profile, a planner pool and a
// simulator pool recycling arenas across requests, and the graph's
// content digest (computed once — it feeds every plan key for this
// workload).
type prepared struct {
	name   string
	g      *graph.Graph
	sched  *graph.Schedule
	lv     *graph.Liveness
	prof   *profiler.Profile
	dev    device.Device
	pool   *core.PlannerPool
	sims   *sim.SimPool
	digest [sha256.Size]byte
}

// workloadCache memoizes request → prepared workload resolution with
// a bounded LRU. Building a workload (graph construction, scheduling,
// liveness, profiling) costs orders of magnitude more than a cache
// probe, and the digest it yields is what makes plan-cache hits cheap:
// a warm probe never re-hashes the graph.
//
// Builds happen while holding mu. That serializes concurrent misses on
// *different* workloads, which is deliberate: it keeps each workload
// built exactly once without per-entry latches, and the build is
// milliseconds against a planning request's budget.
type workloadCache struct {
	rec obs.Recorder // receives each workload's simulator-pool counters

	mu  sync.Mutex
	lru *lru[*prepared] // lint:guardedby mu
}

func newWorkloadCache(capacity int, rec obs.Recorder) *workloadCache {
	return &workloadCache{rec: rec, lru: newLRU[*prepared](capacity, 32)}
}

// get resolves a validated request to its prepared workload, building
// and caching it on first use.
func (wc *workloadCache) get(req *PlanRequest) (*prepared, *httpError) {
	id := req.workloadID()
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if w, ok := wc.lru.get(id); ok {
		return w, nil
	}
	w, herr := buildWorkload(req, wc.rec)
	if herr != nil {
		return nil, herr
	}
	wc.lru.put(id, w)
	return w, nil
}

// len reports the resident workload count (for /healthz).
func (wc *workloadCache) len() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.lru.len()
}

// buildWorkload constructs the graph a validated request names and
// prepares it for planning and simulation. rec receives the simulator
// pool's get/reuse counters (warm-arena hit rate across requests).
func buildWorkload(req *PlanRequest, rec obs.Recorder) (*prepared, *httpError) {
	dev, err := device.ByName(req.Device)
	if err != nil {
		return nil, errBadRequest("unknown device %q", req.Device)
	}
	var g *graph.Graph
	if req.Spec != nil {
		g = workload.RandGraph(req.Spec.Seed)
	} else {
		cfg := models.Config{
			BatchSize:  req.Config.BatchSize,
			ParamScale: req.Config.ParamScale,
			ImageSize:  req.Config.ImageSize,
			SeqLen:     req.Config.SeqLen,
		}
		g, err = models.Build(req.Model, cfg)
		if err != nil {
			return nil, &httpError{status: http.StatusNotFound, code: "unknown_model", message: err.Error()}
		}
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, code: "unschedulable", message: err.Error()}
	}
	lv := graph.AnalyzeLiveness(g, sched)
	prof := profiler.New(dev, sched)
	sims := sim.NewSimPool()
	sims.Obs = rec
	return &prepared{
		name:   req.displayName(),
		g:      g,
		sched:  sched,
		lv:     lv,
		prof:   prof,
		dev:    dev,
		pool:   core.NewPlannerPool(g, sched, lv, prof, dev),
		sims:   sims,
		digest: graphDigest(g),
	}, nil
}
