// Package prep prepares workloads: a zoo model (Build) or a built
// graph (FromGraph) on a device becomes the artifact TSPLIT's planner
// consumes — graph, schedule, liveness and per-operator profile (paper
// Sec. V-B) — with the planner and simulator pools that plan and run
// it, prepared once and planned and run many times. A workload owns
// its arenas: nothing in this package outlives the workloads and
// templates its callers keep. A Template (templates.go) prepares one
// model at many batch sizes in recycled slots, each keeping its
// planners and simulators; a Templates set holds one per model,
// configuration and device.
package prep

import (
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/sim"
)

// Prepared bundles everything derived from one (graph, config, device)
// triple: the training graph, its schedule, liveness, and profile,
// plus the planner and simulator arenas that serve it. Build and
// FromGraph prepare one from scratch; a Template rebatches it into a
// recycled slot, with the same result field for field. Planning and
// simulating leave the workload unchanged, so one Prepared serves
// every policy, in any order and from several goroutines.
type Prepared struct {
	Name string
	Cfg  models.Config
	Dev  device.Device
	graph.Workload
	Prof     *profiler.Profile
	Planners *core.PlannerPool
	Sims     *sim.SimPool

	slot *Template // the template a rebatched workload returns to
}

// Build builds a zoo model's training graph and prepares it.
func Build(model string, cfg models.Config, dev device.Device) (*Prepared, error) {
	g, err := models.Build(model, cfg)
	if err != nil {
		return nil, err
	}
	return FromGraph(model, g, cfg, dev)
}

// FromGraph prepares a built training graph: it schedules the graph,
// analyses its liveness and profiles it on dev. name and cfg label the
// workload; the graph is not rebuilt from them.
func FromGraph(name string, g *graph.Graph, cfg models.Config, dev device.Device) (*Prepared, error) {
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Workload: graph.Workload{G: g, Sched: sched, Lv: graph.AnalyzeLiveness(g, sched)}}
	p.fill(name, cfg, dev)
	return p, nil
}

// fill labels p's workload, profiles it and gives it empty planner and
// simulator pools: the step a fresh build and a new template slot
// share.
func (p *Prepared) fill(name string, cfg models.Config, dev device.Device) {
	p.Name, p.Cfg, p.Dev = name, cfg, dev
	p.Prof = profiler.New(dev, p.Sched)
	p.Planners = core.NewPlannerPool(p.G, p.Sched, p.Lv, p.Prof, dev)
	p.Sims = sim.NewSimPool()
}

// Plan plans the workload under opts on a planner borrowed from
// Planners, and returns the plan with its report (nil unless
// opts.CollectReport).
func (p *Prepared) Plan(opts core.Options) (*core.Plan, *core.PlanReport, error) {
	return p.planIn(opts, nil)
}

// planIn is Plan with the plan's lists built in st (core.PlanStore).
func (p *Prepared) planIn(opts core.Options, st *core.PlanStore) (*core.Plan, *core.PlanReport, error) {
	pl := p.Planners.Get(opts)
	defer p.Planners.Put(pl)
	plan, err := pl.PlanIn(st)
	if err != nil {
		return nil, nil, err
	}
	return plan, pl.Report(), nil
}
