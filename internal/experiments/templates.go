package experiments

import (
	"sync"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
)

// templates prepares workloads on one device along the batch axis. The
// first request for a model and configuration builds the model at
// batch 1 and 2 into a graph.Template; that request and every later one
// rebatch from it, which skips building, scheduling and analysing the
// graph again. Workloads live in slots that their users release when
// done; the next request rebatches a released slot in place, so its
// graph, profile and planners are recycled rather than allocated (the
// paper's runtime pools device memory for the same reason, Sec. V-D).
// A set lives for one experiment call and its templates and slots are
// dropped with it.
type templates struct {
	dev device.Device
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

func newTemplates(dev device.Device) *templates {
	return &templates{dev: dev, m: map[templateKey]*template{}}
}

// prepare returns the workload at cfg.BatchSize (at least 1), equal to
// what Prepare builds, in a slot the caller owns until it calls
// release: a released slot of the model's, rebatched in place, or a
// new one, which counts in Obs as
// tsplit_experiments_workload_slots_total. It is safe for concurrent
// use.
func (ts *templates) prepare(model string, cfg models.Config) (*Prepared, error) {
	key := templateKey{model, cfg}
	key.cfg.BatchSize = 0
	ts.mu.Lock()
	e := ts.m[key]
	if e == nil {
		e = &template{}
		ts.m[key] = e
	}
	ts.mu.Unlock()
	e.once.Do(func() { e.tp, e.err = newTemplate(model, key.cfg) })
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
		if rec := Obs; rec != nil {
			rec.Add("tsplit_experiments_workload_slots_total", 1)
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

// release hands a workload back to the template it was rebatched from,
// for the next prepare of its model to rebatch in place. The caller
// must be done with the workload and with everything derived from it:
// plans and simulation results point into its graph. Workloads that
// Prepare built belong to no template and are left to the garbage
// collector.
func (p *Prepared) release() {
	e := p.slot
	if e == nil {
		return
	}
	e.mu.Lock()
	e.free = append(e.free, p)
	e.mu.Unlock()
}

// newTemplate builds the model at batch 1 and 2 and templates it.
func newTemplate(model string, cfg models.Config) (*graph.Template, error) {
	var gs [2]*graph.Graph
	for i := range gs {
		cfg.BatchSize = i + 1
		g, err := buildGraph(model, cfg)
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return graph.NewTemplate(gs[0], gs[1])
}
