package prep

import (
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
)

// spares is the process-wide spare list of planners. A Templates set
// lives for one search (one table, one figure), and its slots, graphs
// and profiles go with it; the planners, whose arenas a cold planner
// allocates on its first run, outlive it here, keyed by template
// configuration, as the simulator's arenas outlive their sweeps
// (sims). A later set's slot adopts one (core.Planner.Rebind) instead
// of building cold arenas. A configuration holds no more planners than
// its slots ever had in use at once; a spare keeps the graph it last
// planned alive until it is adopted.
var spares = spareList{m: map[spareKey][]*core.Planner{}}

// spareKey names a template configuration across template sets: the
// model, its configuration with BatchSize zeroed, and the device.
type spareKey struct {
	model string
	cfg   models.Config
	dev   device.Device
}

type spareList struct {
	mu sync.Mutex
	m  map[spareKey][]*core.Planner // lint:guardedby mu
}

func (t *Template) spareKey() spareKey { return spareKey{t.model, t.cfg, t.dev} }

func (s *spareList) put(k spareKey, pl *core.Planner) {
	s.mu.Lock()
	s.m[k] = append(s.m[k], pl)
	s.mu.Unlock()
}

// take removes a spare planner of configuration k, or returns nil.
func (s *spareList) take(k spareKey) *core.Planner {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.m[k]
	n := len(l)
	if n == 0 {
		return nil
	}
	pl := l[n-1]
	l[n-1] = nil
	s.m[k] = l[:n-1]
	return pl
}

// planner borrows a planner for the workload, to be Put back to
// Planners. A slot of a Templates set whose pool is empty adopts a
// spare of its configuration, and builds one, counted as
// PlannerArenas, only when none adopts.
func (p *Prepared) planner(opts core.Options) *core.Planner {
	t := p.slot
	if t == nil || !t.spares {
		return p.Planners.Get(opts)
	}
	pl := p.Planners.Take()
	if pl == nil {
		pl = spares.take(t.spareKey())
		if pl != nil && !pl.Rebind(p.G, p.Sched, p.Lv, p.Prof) {
			pl = nil // another topology under the key: drop it
		}
	}
	if pl == nil {
		if t.rec != nil {
			t.rec.Add(PlannerArenas, 1)
		}
		return core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, opts)
	}
	pl.SetOptions(opts)
	return pl
}

// SparePlanners reports how many spare planners the process holds for
// model under cfg (its BatchSize ignored) on dev, for tests.
func SparePlanners(model string, cfg models.Config, dev device.Device) int {
	cfg.BatchSize = 0
	spares.mu.Lock()
	defer spares.mu.Unlock()
	return len(spares.m[spareKey{model, cfg, dev}])
}
