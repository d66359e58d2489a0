package serve

import (
	"context"
	"crypto/sha256"
	"net/http"
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
	"tsplit/internal/workload"
)

// prepared is one resolved workload, named by the request's display
// name, plus what serve alone keeps for it: a simulator pool recycling
// arenas across requests and the graph's content digest (computed
// once — it feeds every plan key for this workload).
type prepared struct {
	*prep.Prepared
	sims   *sim.SimPool
	digest [sha256.Size]byte
}

// workloadCache memoizes request → prepared workload resolution with
// a bounded LRU. Building a workload (graph construction, scheduling,
// liveness, profiling, digest) costs orders of magnitude more than a
// cache probe, and the digest it yields is what makes plan-cache hits
// cheap: a warm probe never re-hashes the graph.
//
// mu covers the LRU probe and the LRU put, never a build: every
// request of both endpoints passes through get before it can compute
// its key, so a build under mu would stall hits on other workloads for
// its whole length. A miss instead builds as the leader of a
// per-workload-id flight — concurrent requests for the same cold id
// wait on that one build — holding one of MaxConcurrent build slots,
// so a burst of distinct cold ids cannot oversubscribe the CPUs the
// planner runs share. Both waits honour the request context.
type workloadCache struct {
	reg   *obs.Registry // build metrics, and each workload's simulator-pool counters
	clock obs.Clock

	builds *flightGroup[*prepared]
	slots  chan struct{}   // build slots; len(slots) == builds running
	hook   func(id string) // Config.testHookBuildStart

	mu  sync.Mutex
	lru *lru[*prepared] // lint:guardedby mu
}

// newWorkloadCache sizes the cache from a Config whose defaults are
// already applied.
func newWorkloadCache(cfg Config) *workloadCache {
	cfg.Metrics.SetHelp("tsplit_serve_workload_builds_total", "Workloads built (graph, schedule, liveness, profile, digest): requests that named a workload id not resident and led its build.")
	cfg.Metrics.SetHelp("tsplit_serve_workload_build_seconds", "Time to build one workload, once the build holds its slot.")
	return &workloadCache{
		reg:    cfg.Metrics,
		clock:  cfg.Clock,
		builds: newFlightGroup[*prepared](nil),
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		hook:   cfg.testHookBuildStart,
		lru:    newLRU[*prepared](cfg.WorkloadEntries, 32),
	}
}

// probe returns the resident workload under id, marking it most
// recently used.
func (wc *workloadCache) probe(id string) (*prepared, bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.lru.get(id)
}

// get resolves a validated request to its prepared workload. state
// says how: "cached" (resident), "built" (this request led the build)
// or "coalesced" (it waited on another request's build of the same
// id). A failed build is shared with its waiters and not cached: the
// next request for the id builds again. A request whose ctx expires
// while it waits — for the same-id build or for a build slot — answers
// 503.
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
		w, herr := buildWorkload(req, wc.reg)
		wc.reg.Observe("tsplit_serve_workload_build_seconds", wc.clock().Sub(start).Seconds())
		wc.reg.Add("tsplit_serve_workload_builds_total", 1)
		if herr != nil {
			return nil, herr
		}
		wc.mu.Lock()
		wc.lru.put(id, w)
		wc.mu.Unlock()
		return w, nil
	})
	if coalesced {
		state = "coalesced"
	}
	if waitErr != nil {
		return nil, state, errTimeout("waiting for the workload's in-flight build")
	}
	return w, state, herr
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
	var cfg models.Config
	if req.Spec != nil {
		g = workload.RandGraph(req.Spec.Seed)
	} else {
		cfg = models.Config{
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
	p, err := prep.FromGraph(req.displayName(), g, cfg, dev)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, code: "unschedulable", message: err.Error()}
	}
	sims := sim.NewSimPool()
	sims.Obs = rec
	return &prepared{Prepared: p, sims: sims, digest: graphDigest(g)}, nil
}
