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
	"fmt"
	"strings"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// prepare prepares a workload from scratch, counting its graph build.
// Calls that prepare one model at several batch sizes rebatch it from
// a template set instead (prep.Templates).
func prepare(model string, cfg models.Config, dev device.Device) (*prep.Prepared, error) {
	g, err := buildGraph(model, cfg)
	if err != nil {
		return nil, err
	}
	return prep.FromGraph(model, g, cfg, dev)
}

// buildGraph builds a model's training graph and counts the build in
// Obs as prep.GraphBuilds, as the template sets count theirs; every
// graph this package builds outside a template set goes through it.
func buildGraph(model string, cfg models.Config) (*graph.Graph, error) {
	if rec := Obs; rec != nil {
		rec.Add(prep.GraphBuilds, 1)
	}
	return models.Build(model, cfg)
}

// Policies lists every policy the evaluation compares, in table order.
// "tsplit-nosplit" is the Fig. 14(a) ablation.
var Policies = append(append([]string{}, baselines.Names...), "tsplit", "tsplit-nosplit")

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

// PlanPolicy produces the plan for a policy without simulating.
func PlanPolicy(p *prep.Prepared, policy string, capacity int64) (*core.Plan, error) {
	return planPolicyReserve(p, policy, capacity, 0)
}

func planPolicyReserve(p *prep.Prepared, policy string, capacity, reserve int64) (*core.Plan, error) {
	switch policy {
	case "tsplit", "tsplit-nosplit", "tsplit-offload":
		opts := core.Options{
			Capacity:             capacity,
			DisableSplit:         policy == "tsplit-nosplit",
			OffloadOptimizer:     policy == "tsplit-offload",
			FragmentationReserve: reserve,
		}
		// TSPLIT's reserve ladder and the policies sharing this
		// workload all plan on one set of recycled arenas.
		plan, _, err := p.Plan(opts)
		return plan, err
	default:
		b, ok := baselines.Registry[policy]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q", policy)
		}
		return b(baselines.Inputs{G: p.G, Sched: p.Sched, Lv: p.Lv, Prof: p.Prof, Dev: p.Dev})
	}
}

// simPool recycles simulator arenas across every simulation this
// package runs. The sweeps are sharded over forEach workers; each
// worker borrows an arena per cell and returns it after, so a sweep
// reaches steady state after one cell per worker and stops allocating
// simulator state entirely. Results are byte-identical to fresh
// simulators, so the ordered per-index fold is untouched.
var simPool = sim.NewSimPool()

// simulate runs one simulation on simPool and returns its result.
func simulate(p *prep.Prepared, plan *core.Plan, opts sim.Options) (sim.Result, error) {
	s := simPool.Get(p.G, p.Sched, p.Lv, plan, p.Dev, opts)
	res, err := s.Run()
	simPool.Put(s)
	return res, err
}

// simOptions returns the runtime configuration a policy uses:
// SuperNeurons and TSPLIT run the LRU-hybrid recomputation cache
// (paper Sec. V-D: TSPLIT "adopts an LRU-based recomputation
// optimization"); the remaining policies use the memory-centric
// strategy.
func simOptions(policy string, capacity int64, timeline bool) sim.Options {
	o := sim.Options{Capacity: capacity, CollectTimeline: timeline}
	switch policy {
	case "superneurons", "tsplit", "tsplit-nosplit", "tsplit-offload":
		o.Recompute = sim.LRURecompute
	}
	return o
}

// RunPolicy plans and simulates one policy on a prepared workload.
// capacity 0 uses the device's full memory.
func RunPolicy(p *prep.Prepared, policy string, capacity int64) PolicyResult {
	return runPolicy(p, policy, capacity, false)
}

// RunPolicyTimeline is RunPolicy with execution-trace collection
// (Fig. 2(a)).
func RunPolicyTimeline(p *prep.Prepared, policy string, capacity int64) PolicyResult {
	return runPolicy(p, policy, capacity, true)
}

func runPolicy(p *prep.Prepared, policy string, capacity int64, timeline bool) PolicyResult {
	r := PolicyResult{Policy: policy}
	// TSPLIT iterates plan -> trial execution: when the run-time
	// validation hits fragmentation the planner retries against a
	// larger reserve (the real system's profile-and-replan loop).
	reserves := []int64{0}
	if strings.HasPrefix(policy, "tsplit") {
		cap := capacity
		if cap == 0 {
			cap = p.Dev.MemBytes
		}
		reserves = core.ReserveLadder(cap)
	}
	for _, rv := range reserves {
		plan, err := planPolicyReserve(p, policy, capacity, rv)
		if err != nil {
			r.Reason = err.Error()
			continue
		}
		r.Plan = plan
		res, err := simulate(p, plan, simOptions(policy, capacity, timeline))
		if err != nil {
			r.Reason = err.Error()
			continue
		}
		r.Feasible = true
		r.Res = res
		return r
	}
	return r
}
