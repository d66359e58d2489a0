// Package experiments reproduces the paper's evaluation (Sec. VI):
// it prepares workloads (package prep), runs every memory-management
// policy on the simulated devices, searches maximum trainable scales,
// and renders the tables and figure series the paper reports. A sweep
// prepares each distinct workload once and runs it under every policy
// that asks for it (scale.go, figures.go). Along the batch axis it
// does not build the workload either: each model is built at batch 1
// and 2 into a graph.Template once per call, and every batch size is
// rebatched from it into a recycled slot — graph, profile and planners
// included (prep.Templates). Planner and simulator arenas are pooled.
// Both the cmd/tsplit-bench binary and the repository's bench_test.go
// are thin wrappers over this package.
package experiments

import (
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// templates holds the template of every model, configuration and
// device the experiments have prepared along the batch axis, with its
// released slots and their planners, for the life of the process: a
// later search rebatches them without building a graph, a slot or a
// planner again.
var templates = prep.NewTemplates()

// prepare prepares a workload from scratch, counting its graph build.
// Calls that prepare one model at several batch sizes rebatch it from
// templates instead.
func prepare(model string, cfg models.Config, dev device.Device) (*prep.Prepared, error) {
	g, err := buildGraph(model, cfg)
	if err != nil {
		return nil, err
	}
	return prep.FromGraph(model, g, cfg, dev)
}

// buildGraph builds a model's training graph and counts the build in
// Obs as prep.GraphBuilds, as templates counts its own; every graph
// this package builds outside templates goes through it.
func buildGraph(model string, cfg models.Config) (*graph.Graph, error) {
	if rec := Obs; rec != nil {
		rec.Add(prep.GraphBuilds, 1)
	}
	return models.Build(model, cfg)
}

// PolicyResult is the outcome of one (workload, policy) run.
type PolicyResult struct {
	Policy   string
	Feasible bool
	// Reason explains infeasibility (planner failure, OOM, unsupported
	// model).
	Reason string
	Plan   *core.Plan
	Res    sim.Result
}

// Throughput returns samples/second, or 0 when infeasible.
func (r PolicyResult) Throughput(batch int) float64 {
	if !r.Feasible {
		return 0
	}
	return r.Res.Throughput(batch)
}

// RunPolicy plans and simulates one policy on a prepared workload in
// the device's memory (prep's plan → trial-run loop). The result's
// plan is its own.
func RunPolicy(p *prep.Prepared, policy string) PolicyResult {
	return runPolicy(p, policy, nil)
}

// runPolicy is RunPolicy with the plans built in st
// (prep.RunStore): the result's plan lives until st's next use, so
// only a caller that reads the verdict or the throughput and drops the
// plan passes one.
func runPolicy(p *prep.Prepared, policy string, st *prep.RunStore) PolicyResult {
	plan, res, err := p.RunPolicyIn(policy, core.Options{}, sim.Options{}, st)
	r := PolicyResult{Policy: policy, Feasible: err == nil, Plan: plan, Res: res}
	if err != nil {
		r.Reason = err.Error()
	}
	return r
}

// runStores lends plan storage to the sweep units that keep only
// verdicts and throughputs (searchScales, throughputFigure): a unit
// borrows one RunStore for the policies it runs and returns it when
// they are done, so a sweep stops allocating the plans it drops.
var runStores = sync.Pool{New: func() any { return new(prep.RunStore) }}
