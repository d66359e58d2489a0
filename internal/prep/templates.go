package prep

import (
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// The counters a template set records: graphs built and slots
// allocated. The experiments, the sets' users, count their fresh
// builds under GraphBuilds too.
const (
	GraphBuilds   = "tsplit_experiments_graph_builds_total"
	WorkloadSlots = "tsplit_experiments_workload_slots_total"
)

// Templates prepares workloads on one device along the batch axis. The
// first request for a model and configuration builds the model at
// batch 1 and 2 into a graph.Template; that request and every later one
// rebatch from it, which skips building, scheduling and analysing the
// graph again. Workloads live in slots that their users release when
// done; the next request rebatches a released slot in place, so its
// graph, profile and planners are recycled rather than allocated (the
// paper's runtime pools device memory for the same reason, Sec. V-D).
// A set's templates and slots are dropped with it.
type Templates struct {
	dev device.Device
	rec obs.Recorder
	mu  sync.Mutex
	m   map[templateKey]*template // lint:guardedby mu
}

// templateKey names a template: the model and its configuration with
// BatchSize zeroed.
type templateKey struct {
	model string
	cfg   models.Config
}

// template is built once, by whichever request for its key comes
// first; the others wait on once. free holds its released slots.
type template struct {
	once sync.Once
	tp   *graph.Template
	err  error

	mu   sync.Mutex
	free []*Prepared // lint:guardedby mu
}

// NewTemplates returns an empty template set for dev. rec, when
// non-nil, counts every graph the set builds as GraphBuilds and every
// slot it allocates as WorkloadSlots.
func NewTemplates(dev device.Device, rec obs.Recorder) *Templates {
	return &Templates{dev: dev, rec: rec, m: map[templateKey]*template{}}
}

// Prepare returns the workload at cfg.BatchSize (at least 1), equal to
// what Build builds, in a slot the caller owns until it calls Release:
// a released slot of the model's, rebatched in place, or a new one. It
// is safe for concurrent use.
func (ts *Templates) Prepare(model string, cfg models.Config) (*Prepared, error) {
	key := templateKey{model, cfg}
	key.cfg.BatchSize = 0
	ts.mu.Lock()
	e := ts.m[key]
	if e == nil {
		e = &template{}
		ts.m[key] = e
	}
	ts.mu.Unlock()
	e.once.Do(func() { e.tp, e.err = ts.newTemplate(model, key.cfg) })
	if e.err != nil {
		return nil, e.err
	}
	e.mu.Lock()
	var p *Prepared
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	}
	e.mu.Unlock()
	if p == nil {
		p = &Prepared{slot: e}
		if ts.rec != nil {
			ts.rec.Add(WorkloadSlots, 1)
		}
	}
	g := p.G
	e.tp.Rebatch(cfg.BatchSize, &p.Workload)
	if p.G == g {
		p.Prof.Refresh()
		p.Cfg = cfg
	} else {
		p.fill(model, cfg, ts.dev)
	}
	return p, nil
}

// Release hands a workload back to the template it was rebatched
// from, for the next Prepare of its model to rebatch in place. The
// caller must be done with the workload and with everything derived
// from it: plans and simulation results point into its graph.
// Workloads that Build or FromGraph prepared belong to no template and
// are left to the garbage collector.
func (p *Prepared) Release() {
	e := p.slot
	if e == nil {
		return
	}
	e.mu.Lock()
	e.free = append(e.free, p)
	e.mu.Unlock()
}

// newTemplate builds the model at batch 1 and 2 and templates it.
func (ts *Templates) newTemplate(model string, cfg models.Config) (*graph.Template, error) {
	var gs [2]*graph.Graph
	for i := range gs {
		cfg.BatchSize = i + 1
		if ts.rec != nil {
			ts.rec.Add(GraphBuilds, 1)
		}
		g, err := models.Build(model, cfg)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return graph.NewTemplate(gs[0], gs[1])
}
