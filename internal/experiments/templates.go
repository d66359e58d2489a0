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
// graph again. A set lives for one experiment call and its templates
// are dropped with it.
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
// first; the others wait on once.
type template struct {
	once sync.Once
	tp   *graph.Template
	err  error
}

func newTemplates(dev device.Device) *templates {
	return &templates{dev: dev, m: map[templateKey]*template{}}
}

// prepare returns the workload at cfg.BatchSize (at least 1), equal to
// what Prepare builds. It is safe for concurrent use.
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
	g, sched, lv := e.tp.Rebatch(cfg.BatchSize)
	return prepared(model, cfg, ts.dev, g, sched, lv), nil
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
