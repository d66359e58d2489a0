package core

import (
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/profiler"
)

// PlannerPool recycles planners for one set of (graph, schedule,
// liveness, profile, device) objects. A planner's first run allocates
// the per-model arenas — the ID-indexed liveness mirrors, the
// candidate index CSRs, the occupancy block decomposition, the memory
// curve — which dominate a cold Plan()'s allocation count. A recycled
// planner keeps all of them and resets in place at the top of each
// run, so steady-state Plan() calls allocate only the returned Plan
// itself. The objects may be rebatched in place between borrows
// (graph.Template.Rebatch, with the profile refreshed): a pooled
// planner's next run sees the graph's new generation and re-derives
// its size-dependent state inside the same arenas.
//
// A pool's planners belong to its workload and live as long as it
// does: a prep.Template slot keeps its pool across rebatches.
//
// Callers that plan the same workload repeatedly (hyper-parameter
// sweeps, the serve path, benchmark drivers) Get a planner per task and
// Put it back when the plan has been consumed. Every Plan() is a full
// run from the empty plan. What a recycled planner carries across runs
// is scratch, a plan-size hint, and the split configuration lists an
// empty plan builds under the current option key — all functions of
// the workload and options, not of any plan — so its output never
// depends on the previous borrower's (TestPlannerPoolHistoryIndependent).
type PlannerPool struct {
	g     *graph.Graph
	sched *graph.Schedule
	lv    *graph.Liveness
	prof  *profiler.Profile
	dev   device.Device

	mu   sync.Mutex
	free []*Planner // lint:guardedby mu
}

// NewPlannerPool creates an empty pool for the configuration. No
// planner is built until the first Get.
func NewPlannerPool(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, prof *profiler.Profile, dev device.Device) *PlannerPool {
	return &PlannerPool{g: g, sched: sched, lv: lv, prof: prof, dev: dev}
}

// Get returns a planner with opts applied: a recycled one when the
// free list is non-empty, otherwise a freshly constructed one.
func (pp *PlannerPool) Get(opts Options) *Planner {
	pp.mu.Lock()
	var pl *Planner
	if n := len(pp.free); n > 0 {
		pl = pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
	}
	pp.mu.Unlock()
	if pl == nil {
		return NewPlanner(pp.g, pp.sched, pp.lv, pp.prof, pp.dev, opts)
	}
	pl.SetOptions(opts)
	return pl
}

// Put returns a planner to the pool. Planners built for a different
// configuration are dropped rather than pooled — handing them out
// later would plan the wrong model, or price it for the wrong device.
// So is a planner whose last run planned another generation of the
// graph: it was held across a rebatch, and whatever it planned no
// longer exists. Put(nil) is a no-op.
func (pp *PlannerPool) Put(pl *Planner) {
	if pl == nil || pl.G != pp.g || pl.Sched != pp.sched || pl.Lv != pp.lv || pl.Prof != pp.prof || pl.Dev != pp.dev {
		return
	}
	if pl.ms != nil && pl.graphGen != pp.g.Generation() {
		return
	}
	pl.Reset()
	pp.mu.Lock()
	pp.free = append(pp.free, pl)
	pp.mu.Unlock()
}

// Size reports the current free-list length (for tests and metrics).
func (pp *PlannerPool) Size() int {
	pp.mu.Lock()
	n := len(pp.free)
	pp.mu.Unlock()
	return n
}
