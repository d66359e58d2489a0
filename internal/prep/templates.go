package prep

import (
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// The counters a template records: graphs built and slots allocated,
// and, for a Templates set, the planners its slots build rather than
// adopt. Its users count their fresh builds under GraphBuilds too.
const (
	GraphBuilds   = "tsplit_experiments_graph_builds_total"
	WorkloadSlots = "tsplit_experiments_workload_slots_total"
	PlannerArenas = "tsplit_experiments_planner_arenas_total"
)

// Template prepares one model configuration on one device at any batch
// size. It builds the model at batch 1 and 2 into a graph.Template once;
// every Prepare rebatches from it, which skips building, scheduling and
// analysing the graph again. Workloads live in slots that their users
// release when done; the next Prepare rebatches a released slot in
// place, so its graph, profile and planners are recycled rather than
// allocated (the paper's runtime pools device memory for the same
// reason, Sec. V-D). A template's slots are dropped with it, and so are
// the planners a slot owns; a Templates set's slots instead hand their
// planners to the process-wide spare list on Release (spares.go).
type Template struct {
	model string
	cfg   models.Config // BatchSize zeroed
	dev   device.Device
	rec   obs.Recorder
	keep  int
	tp    *graph.Template
	// spares marks a Templates set's template: its slots borrow
	// planners through the spare list.
	spares bool

	mu   sync.Mutex
	free []*Prepared // lint:guardedby mu
}

// NewTemplate builds model under cfg (its BatchSize ignored) at batch 1
// and 2 and templates it for dev. rec, when non-nil, counts both builds
// as GraphBuilds and every slot the template allocates as
// WorkloadSlots. Release keeps at most keep released slots for reuse
// and leaves the rest to the garbage collector; keep ≤ 0 keeps them all.
func NewTemplate(model string, cfg models.Config, dev device.Device, rec obs.Recorder, keep int) (*Template, error) {
	cfg.BatchSize = 0
	var gs [2]*graph.Graph
	for i := range gs {
		b := cfg
		b.BatchSize = i + 1
		if rec != nil {
			rec.Add(GraphBuilds, 1)
		}
		g, err := models.Build(model, b)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	tp, err := graph.NewTemplate(gs[0], gs[1])
	if err != nil {
		return nil, err
	}
	return &Template{model: model, cfg: cfg, dev: dev, rec: rec, keep: keep, tp: tp}, nil
}

// Prepare returns the workload at batch (0: models.DefaultBatchSize,
// as Build builds it), equal to what Build builds and labelled with the
// template's configuration at that batch, in a slot the caller owns
// until it calls Release: a released slot, rebatched in place, or a new
// one. It is safe for concurrent use.
func (t *Template) Prepare(batch int) *Prepared {
	t.mu.Lock()
	var p *Prepared
	if n := len(t.free); n > 0 {
		p = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.mu.Unlock()
	if p == nil {
		p = &Prepared{slot: t}
		if t.rec != nil {
			t.rec.Add(WorkloadSlots, 1)
		}
	}
	cfg := t.cfg
	cfg.BatchSize = batch
	n := batch
	if n == 0 {
		n = models.DefaultBatchSize
	}
	g := p.G
	t.tp.Rebatch(n, &p.Workload)
	if p.G == g {
		p.Prof.Refresh()
		p.Cfg = cfg
	} else {
		p.fill(t.model, cfg, t.dev)
	}
	return p
}

// Release hands a workload back to the template it was rebatched
// from, for the template's next Prepare to rebatch in place. A slot of
// a Templates set also hands its free planners to the spare list,
// where any later set's slot of the same configuration may adopt
// them; a template of NewTemplate's keeps them in the slot. The
// caller must be done with the workload and with everything derived
// from it: plans and simulation results point into its graph.
// Workloads that Build or FromGraph prepared belong to no template and
// are left to the garbage collector.
func (p *Prepared) Release() {
	t := p.slot
	if t == nil {
		return
	}
	if t.spares {
		for pl := p.Planners.Take(); pl != nil; pl = p.Planners.Take() {
			spares.put(t.spareKey(), pl)
		}
	}
	t.mu.Lock()
	if t.keep <= 0 || len(t.free) < t.keep {
		t.free = append(t.free, p)
	}
	t.mu.Unlock()
}

// Templates prepares workloads on one device along the batch axis, one
// Template per model and configuration, each built by the first
// Prepare that needs it. A set's templates and slots are dropped with
// it; its planners outlive it on the spare list (spares.go), so a
// later set plans on warm arenas.
type Templates struct {
	dev device.Device
	rec obs.Recorder
	mu  sync.Mutex
	m   map[templateKey]*lazyTemplate // lint:guardedby mu
}

// templateKey names a template: the model and its configuration with
// BatchSize zeroed.
type templateKey struct {
	model string
	cfg   models.Config
}

// lazyTemplate is built once, by whichever request for its key comes
// first; the others wait on once.
type lazyTemplate struct {
	once sync.Once
	t    *Template
	err  error
}

// NewTemplates returns an empty template set for dev. rec, when
// non-nil, counts every graph the set builds as GraphBuilds, every
// slot it allocates as WorkloadSlots and every planner it builds as
// PlannerArenas.
func NewTemplates(dev device.Device, rec obs.Recorder) *Templates {
	return &Templates{dev: dev, rec: rec, m: map[templateKey]*lazyTemplate{}}
}

// Prepare returns the workload cfg names, as Template.Prepare does, from
// the set's template for model and cfg with BatchSize zeroed. It is safe
// for concurrent use.
func (ts *Templates) Prepare(model string, cfg models.Config) (*Prepared, error) {
	key := templateKey{model, cfg}
	key.cfg.BatchSize = 0
	ts.mu.Lock()
	e := ts.m[key]
	if e == nil {
		e = &lazyTemplate{}
		ts.m[key] = e
	}
	ts.mu.Unlock()
	e.once.Do(func() {
		if e.t, e.err = NewTemplate(model, key.cfg, ts.dev, ts.rec, 0); e.err == nil {
			e.t.spares = true
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.t.Prepare(cfg.BatchSize), nil
}
