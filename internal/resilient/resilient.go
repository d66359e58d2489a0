// Package resilient runs the plan → simulate loop with a
// graceful-degradation ladder for hostile environments: plans are
// built against a safety-margin-reduced budget, and when the runtime
// still reports an (injected) OOM the ladder replans at progressively
// tighter budgets before falling back to the swap-all baseline — the
// slowest policy that can train almost anything. Training degrades;
// it does not abort.
package resilient

import (
	"errors"
	"fmt"

	"tsplit/internal/core"
	"tsplit/internal/faults"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// DefaultMargin is the initial SafetyMargin used when faults are
// enabled and the caller did not choose one: plan as if 10% of the
// budget already belongs to someone else.
const DefaultMargin = 0.10

// marginStep separates successive ladder stages.
const marginStep = 0.10

// Config tunes one resilient run.
type Config struct {
	// Faults selects the injected environment (Severity <= 0: none).
	Faults faults.Config
	// Planner holds every rung's planner options; a rung replaces only
	// SafetyMargin. The other fields serve the whole run:
	//   - Capacity is the memory budget the runtime enforces too
	//     (0 = device);
	//   - SafetyMargin is the first rung's margin (0 with faults
	//     enabled: DefaultMargin);
	//   - CollectReport attaches a PlanReport to the outcome;
	//   - Obs receives planner, runtime, and ladder metrics;
	//   - Trace records the run as a "resilient.run" span with one
	//     "resilient.rung" child per ladder attempt;
	//   - Flight receives ladder escalation events ("ladder.escalate",
	//     "ladder.fallback", "ladder.abort").
	// Obs, Trace and Flight reach the simulator of every rung as well.
	Planner core.Options
	// Sim seeds the runtime options of every rung (Capacity, Faults,
	// Obs, Trace and Flight come from Planner and the injector, and
	// Recompute is the rung policy's, prep.Policies).
	Sim sim.Options
	// Dumper, when set, snapshots the flight ring, metrics, and span
	// tree whenever the ladder escalates, falls back to swap-all, or
	// aborts — the postmortem feed for tsplit-doctor.
	Dumper *obs.Dumper
}

// Stage records one ladder rung: a planning + execution attempt.
type Stage struct {
	// Kind is "plan" (first rung), "replan" (escalated margin), or
	// "swap-all" (final fallback).
	Kind string
	// Margin is the rung's SafetyMargin (0 for swap-all).
	Margin float64
	// Err is why the rung failed; empty for the rung that succeeded.
	Err string
}

// Outcome is the result of a resilient run: the plan and measurements
// of the first rung that survived, plus the ladder trail.
type Outcome struct {
	Plan   *core.Plan
	Result sim.Result
	Report *core.PlanReport
	// Stages lists every rung attempted, in order; the last entry is
	// the one that succeeded.
	Stages []Stage
	// Degraded reports whether any rung failed before one survived.
	Degraded bool
}

// degradations renders the failed rungs for PlanReport.Degradations.
func (o *Outcome) degradations() []string {
	var out []string
	for _, st := range o.Stages {
		if st.Err != "" {
			out = append(out, fmt.Sprintf("%s margin=%.2f: %s", st.Kind, st.Margin, st.Err))
		}
	}
	return out
}

// Run plans and executes a workload under the configured fault
// environment, descending the degradation ladder as needed. It
// returns an error only when even the swap-all fallback cannot train
// the configuration — a genuine capacity wall, not a transient.
func Run(p *prep.Prepared, cfg Config) (Outcome, error) {
	inj := faults.New(cfg.Faults)
	po := cfg.Planner
	m0 := po.SafetyMargin
	if m0 <= 0 && inj != nil {
		m0 = DefaultMargin
	}
	margins := []float64{m0, m0 + marginStep, m0 + 2*marginStep}

	var out Outcome
	if po.Obs != nil {
		po.Obs.Add("tsplit_resilient_runs_total", 1)
	}
	rsp := po.Trace.StartSpan("resilient.run")
	defer rsp.End()
	fail := func(kind string, margin float64, err error) {
		out.Stages = append(out.Stages, Stage{Kind: kind, Margin: margin, Err: err.Error()})
		out.Degraded = true
		if po.Obs != nil {
			po.Obs.Add("tsplit_resilient_degraded_total", 1, obs.L("stage", kind))
		}
		if fl := po.Flight; fl != nil {
			fl.Record("ladder.escalate", err.Error(),
				obs.L("stage", kind),
				obs.L("margin", fmt.Sprintf("%.2f", margin)))
		}
		cfg.Dumper.Trigger("ladder escalation: " + kind)
	}

	// Each rung plans afresh at its margin on the workload's pooled
	// planner arenas.
	for i, m := range margins {
		kind := "plan"
		if i > 0 {
			kind = "replan"
		}
		popts := po
		popts.SafetyMargin = m
		sp := rsp.StartSpan("resilient.rung")
		sp.SetAttr("kind", kind)
		sp.SetAttr("margin", fmt.Sprintf("%.2f", m))
		plan, report, err := p.PlanPolicy("tsplit", popts)
		if err != nil {
			// Infeasible at this margin: tighter margins only shrink the
			// budget further. Go straight to the fallback.
			sp.End()
			fail(kind, m, err)
			break
		}
		res, rerr := runSim(p, plan, cfg, inj)
		sp.End()
		if rerr == nil {
			out.Plan, out.Result, out.Report = plan, res, report
			out.Stages = append(out.Stages, Stage{Kind: kind, Margin: m})
			if out.Report != nil {
				out.Report.Degradations = out.degradations()
			}
			return out, nil
		}
		if !errors.Is(rerr, sim.ErrOOM) {
			return out, rerr
		}
		fail(kind, m, rerr)
	}

	// Final rung: the swap-all baseline trades throughput for the
	// smallest working set any policy here can offer.
	if fl := po.Flight; fl != nil {
		fl.Record("ladder.fallback", "descending to swap-all baseline")
	}
	sp := rsp.StartSpan("resilient.rung")
	sp.SetAttr("kind", "swap-all")
	plan, _, err := p.PlanPolicy("vdnn-all", core.Options{})
	if err != nil {
		sp.End()
		return out, fmt.Errorf("resilient: swap-all fallback: %w", err)
	}
	res, rerr := runSim(p, plan, cfg, inj)
	sp.End()
	if rerr != nil {
		if po.Obs != nil {
			po.Obs.Add("tsplit_resilient_aborts_total", 1)
		}
		if fl := po.Flight; fl != nil {
			fl.Record("ladder.abort", rerr.Error())
		}
		cfg.Dumper.Trigger("ladder abort: swap-all fallback failed")
		return out, fmt.Errorf("resilient: swap-all fallback: %w", rerr)
	}
	out.Plan, out.Result = plan, res
	out.Stages = append(out.Stages, Stage{Kind: "swap-all"})
	if po.CollectReport {
		out.Report = &core.PlanReport{
			Policy:       plan.Name,
			Device:       p.Dev.Name,
			Degradations: out.degradations(),
		}
	}
	return out, nil
}

// runSim executes one rung's plan, with its policy's recompute
// strategy, under the shared injector. The injector's per-event draws
// are keyed by event identity, not by draw order, so every rung faces
// the same environment.
func runSim(p *prep.Prepared, plan *core.Plan, cfg Config, inj *faults.Injector) (sim.Result, error) {
	sopts := cfg.Sim
	sopts.Recompute = prep.RecomputeOf(plan)
	sopts.Capacity = cfg.Planner.Capacity
	sopts.Faults = inj
	sopts.Obs = cfg.Planner.Obs
	sopts.Trace = cfg.Planner.Trace
	sopts.Flight = cfg.Planner.Flight
	return p.Simulate(plan, sopts)
}
