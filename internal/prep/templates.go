package prep

import (
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// The counters a template records: graphs built and slots allocated.
// Its users count their fresh builds under GraphBuilds too.
const (
	GraphBuilds   = "tsplit_experiments_graph_builds_total"
	WorkloadSlots = "tsplit_experiments_workload_slots_total"
)

// Template prepares one model configuration on one device at any batch
// size. It builds the model at batch 1 and 2 into a graph.Template once;
// every Prepare rebatches from it, which skips building, scheduling and
// analysing the graph again. Workloads live in slots that their users
// release when done; the next Prepare rebatches a released slot in
// place, so its graph, profile, planners and simulators are recycled
// rather than allocated (the paper's runtime pools device memory for
// the same reason, Sec. V-D). A slot keeps its planner and simulator
// pools for as long as the template keeps the slot.
type Template struct {
	model string
	cfg   models.Config // BatchSize zeroed
	dev   device.Device
	keep  int
	tp    *graph.Template

	mu   sync.Mutex
	free []*Prepared // lint:guardedby mu
}

// NewTemplate builds model under cfg (its BatchSize ignored) at batch 1
// and 2 and templates it for dev. rec, when non-nil, counts both builds
// as GraphBuilds. Release keeps at most keep released slots for reuse
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
	return &Template{model: model, cfg: cfg, dev: dev, keep: keep, tp: tp}, nil
}

// Prepare returns the workload at batch (0: models.DefaultBatchSize,
// as Build builds it), equal to what Build builds and labelled with the
// template's configuration at that batch, in a slot the caller owns
// until it calls Release: a released slot, rebatched in place, or a new
// one, which rec, when non-nil, counts as WorkloadSlots. It is safe for
// concurrent use.
func (t *Template) Prepare(batch int, rec obs.Recorder) *Prepared {
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
		if rec != nil {
			rec.Add(WorkloadSlots, 1)
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

// Release hands a workload, with the planners and simulators its pools
// hold, back to the template it was rebatched from, for the template's
// next Prepare to rebatch in place. The caller must be done with the
// workload and with everything derived from it: plans and simulation
// results point into its graph. Workloads that Build or FromGraph prepared belong to
// no template and are left to the garbage collector.
func (p *Prepared) Release() {
	t := p.slot
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.keep <= 0 || len(t.free) < t.keep {
		t.free = append(t.free, p)
	}
	t.mu.Unlock()
}

// Templates prepares workloads along the batch axis, one Template per
// model, configuration and device, each built by the first Prepare
// that needs it and kept, with every slot it ever had in use at once,
// for as long as the set lives. The zero value is an empty set.
type Templates struct {
	mu sync.Mutex
	m  map[templateKey]*lazyTemplate // lint:guardedby mu
}

// templateKey names a template: the model, its configuration with
// BatchSize zeroed, and the device.
type templateKey struct {
	model string
	cfg   models.Config
	dev   device.Device
}

// lazyTemplate is built once, by whichever request for its key comes
// first; the others wait on once.
type lazyTemplate struct {
	once sync.Once
	t    *Template
	err  error
}

// Prepare returns the workload cfg names on dev, as Template.Prepare
// does, from the set's template for model, cfg with BatchSize zeroed,
// and dev. rec, when non-nil, counts the graphs this call builds as
// GraphBuilds and the slot it allocates as WorkloadSlots. It is safe
// for concurrent use.
func (ts *Templates) Prepare(model string, cfg models.Config, dev device.Device, rec obs.Recorder) (*Prepared, error) {
	key := templateKey{model, cfg, dev}
	key.cfg.BatchSize = 0
	ts.mu.Lock()
	if ts.m == nil {
		ts.m = map[templateKey]*lazyTemplate{}
	}
	e := ts.m[key]
	if e == nil {
		e = &lazyTemplate{}
		ts.m[key] = e
	}
	ts.mu.Unlock()
	e.once.Do(func() { e.t, e.err = NewTemplate(model, key.cfg, dev, rec, 0) })
	if e.err != nil {
		return nil, e.err
	}
	return e.t.Prepare(cfg.BatchSize, rec), nil
}
