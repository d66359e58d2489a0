package sim

import (
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/costmodel"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/obs"
)

// SimPool recycles Simulators so steady-state simulation allocates
// (almost) nothing: the event heap, the per-tensor mirrors, the
// allocator's free list and slot table and the split scratch carry
// over and are reinitialized in place by the next run's reset(); the
// recompute-chain scratch (core's chain walker, whose epoch-stamped
// visited set needs no reset, and the chain buffers' free lists)
// carries over as is. Unlike core.PlannerPool — whose planners follow
// one set of workload objects, rebatched or not — a SimPool is
// workload-free: Get retargets a recycled arena to any (graph,
// schedule, plan, device), because sweep cells change workloads run to
// run while a serving process replays the same few. Results are
// byte-identical to a fresh New(...).Run(), on a graph rebatched in
// place too: the op-time cache keys on the graph's generation as well
// as its pointer.
//
// A SimPool is safe for concurrent Get/Put; each borrowed Simulator is
// still single-goroutine, like the real runtime's scheduling thread.
type SimPool struct {
	// Obs, when set before use, receives tsplit_simpool_gets_total and
	// tsplit_simpool_reuse_hits_total counters — the serve layer's
	// warm-arena hit-rate signal.
	Obs obs.Recorder

	mu   sync.Mutex
	free []*Simulator // lint:guardedby mu
}

// NewSimPool returns an empty pool.
func NewSimPool() *SimPool { return &SimPool{} }

// Get returns a Simulator targeted at the given workload, recycling a
// pooled arena when one is free. The caller runs it on one goroutine
// and should Put it back when done.
func (p *SimPool) Get(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, plan *core.Plan, dev device.Device, opts Options) *Simulator {
	if opts.Capacity == 0 {
		opts.Capacity = dev.MemBytes
	}
	p.mu.Lock()
	var s *Simulator
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	reused := s != nil
	if s == nil {
		s = &Simulator{Cost: costmodel.New(dev)}
	} else if s.Cost.Dev != dev {
		s.Cost = costmodel.New(dev)
	}
	s.G, s.Sched, s.Lv, s.Plan, s.Dev, s.Opts = g, sched, lv, plan, dev, opts
	if rec := p.Obs; rec != nil {
		rec.Add("tsplit_simpool_gets_total", 1)
		if reused {
			rec.Add("tsplit_simpool_reuse_hits_total", 1)
		}
	}
	return s
}

// Put returns a Simulator to the pool, severing all run state the
// borrower owns — the plan, fault injector, observation sinks, result
// (and its timeline), and every pointer captured from them — while
// keeping the warm identity: the graph/schedule/liveness (so the
// op-time cache hits when the same workload, at the same generation,
// returns — the serve layer's case) and all recycled arena storage.
func (p *SimPool) Put(s *Simulator) {
	if s == nil {
		return
	}
	s.Plan = nil
	s.Opts = Options{}
	s.inj = nil
	s.noise, s.bwMul = nil, nil
	clear(s.hogs)
	s.hogs = s.hogs[:0]
	clear(s.tplans)
	clear(s.prefTensors)
	clear(s.lruCache)
	s.lruCache = s.lruCache[:0]
	s.lruHead = 0
	clear(s.pending)
	s.pending = s.pending[:0]
	clear(s.carvedIns)
	s.carvedIns = s.carvedIns[:0]
	s.res = Result{}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Size reports how many simulators are currently pooled.
func (p *SimPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
