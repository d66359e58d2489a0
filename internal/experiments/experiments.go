// Package experiments reproduces the paper's evaluation (Sec. VI):
// it prepares workloads (package prep), runs every memory-management
// policy on the simulated devices, searches maximum trainable scales,
// and renders the tables and figure series the paper reports. A sweep
// prepares each distinct workload once and runs it under every policy
// that asks for it (scale.go, figures.go). Along the batch axis it
// does not build the workload either: each model is built at batch 1
// and 2 into a graph.Template once, and every batch size is rebatched
// from it into a recycled slot — graph, profile, planners and
// simulators included (prep.Templates).
//
// Each kind of reusable state has one owner. A workload owns its
// arenas: its planner and simulator pools (prep.Prepared). The caller
// owns its Sweep: the templates and their slots, the plan stores the
// searches build their verdict-only plans in, and the recorder and
// tracer the sweep reports to. A caller that wants warm searches keeps
// one Sweep; two Sweeps share nothing. Both the cmd/tsplit-bench
// binary and the repository's bench_test.go are thin wrappers over
// this package.
package experiments

import (
	"sync"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// Sweep runs the paper's tables, figures and ablations. It keeps, for
// as long as it lives, the templates its methods prepared along the
// batch axis — with their released slots and the slots' planners and
// simulators — and the plan stores its searches lend their units, so a
// later search on it builds no graph, slot or arena again. Its answers
// do not depend on what it ran before. The zero value is ready to use;
// the methods are safe for concurrent use; a Sweep must not be copied.
type Sweep struct {
	// Obs, when set before a sweep starts, receives per-unit metrics:
	// tsplit_experiments_cells_total and the
	// tsplit_experiments_cell_seconds histogram, one count and one
	// sample per forEach unit, tsplit_experiments_graph_builds_total,
	// one count per model graph built, and
	// tsplit_experiments_workload_slots_total, one count per workload
	// slot allocated (prep.Templates). The Registry is thread-safe, so
	// the parallel sweeps record into it concurrently.
	Obs obs.Recorder
	// Trace, when set before a sweep starts, records one
	// "experiments.cell" span per forEach unit. Tracer.StartSpan is
	// mutex-protected, so the concurrent pool records root spans
	// safely; within a worker the cell span is single-goroutine,
	// honoring the per-span-tree contract.
	Trace *obs.Tracer

	templates prep.Templates
	// stores lends plan storage (*prep.RunStore) to the units that keep
	// only verdicts and throughputs (searchScales, throughputFigure): a
	// unit borrows one for the policies it runs and returns it when they
	// are done, so a sweep stops allocating the plans it drops.
	stores sync.Pool
}

// Obs and Trace are the hooks of def, the sweep behind the package
// functions Table4MaxSampleScale and Fig12ThroughputRTX: the bench/
// harness sets them around a pass, and each call reads them. def lives
// as long as the process, so every call after the first is warm. Every
// other caller keeps a Sweep of its own.
var (
	Obs   obs.Recorder
	Trace *obs.Tracer
	def   Sweep
)

// defaultSweep returns def with the package's Obs and Trace. The
// package functions are for one caller at a time.
func defaultSweep() *Sweep {
	def.Obs, def.Trace = Obs, Trace
	return &def
}

// Table4MaxSampleScale is Sweep.Table4MaxSampleScale on the process's
// default sweep.
func Table4MaxSampleScale(dev device.Device, hi int) *ScaleTable {
	return defaultSweep().Table4MaxSampleScale(dev, hi)
}

// Fig12ThroughputRTX is Sweep.Fig12ThroughputRTX on the process's
// default sweep.
func Fig12ThroughputRTX() *ThroughputFigure { return defaultSweep().Fig12ThroughputRTX() }

// prepare prepares a workload from scratch, counting its graph build.
// Calls that prepare one model at several batch sizes rebatch it from
// s.templates instead.
func (s *Sweep) prepare(model string, cfg models.Config, dev device.Device) (*prep.Prepared, error) {
	g, err := s.buildGraph(model, cfg)
	if err != nil {
		return nil, err
	}
	return prep.FromGraph(model, g, cfg, dev)
}

// buildGraph builds a model's training graph and counts the build in
// Obs as prep.GraphBuilds, as the templates count their own; every
// graph a Sweep builds outside its templates goes through it.
func (s *Sweep) buildGraph(model string, cfg models.Config) (*graph.Graph, error) {
	if rec := s.Obs; rec != nil {
		rec.Add(prep.GraphBuilds, 1)
	}
	return models.Build(model, cfg)
}

// store borrows a plan store from s.stores; the caller puts it back.
func (s *Sweep) store() *prep.RunStore {
	if st, ok := s.stores.Get().(*prep.RunStore); ok {
		return st
	}
	return new(prep.RunStore)
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
