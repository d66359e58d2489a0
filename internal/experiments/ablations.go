package experiments

import (
	"fmt"
	"strings"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/memorypool"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name     string
	Feasible bool
	// TimeSeconds is the measured iteration time (0 when infeasible).
	TimeSeconds float64
	// PeakGiB is the measured peak memory.
	PeakGiB float64
	// Extra carries sweep-specific metrics.
	Extra string
}

// AblationReport groups the rows of one design-choice sweep.
type AblationReport struct {
	Title string
	Rows  []AblationRow
}

// Render draws an ablation report.
func (r AblationReport) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, r.Title)
	for _, row := range r.Rows {
		if !row.Feasible {
			fmt.Fprintf(&b, "  %-28s infeasible\n", row.Name)
			continue
		}
		fmt.Fprintf(&b, "  %-28s t=%7.3fs peak=%5.1f GiB %s\n", row.Name, row.TimeSeconds, row.PeakGiB, row.Extra)
	}
	return b.String()
}

// planWith plans and simulates one planner configuration under a
// memory budget, returning an ablation row. The plan runs with its
// policy's recompute strategy.
func planWith(p *prep.Prepared, name string, capacity int64, opts core.Options) AblationRow {
	opts.Capacity = capacity
	plan, _, err := p.Plan(opts)
	if err != nil {
		return AblationRow{Name: name}
	}
	res, err := p.Simulate(plan, sim.Options{Capacity: capacity, Recompute: prep.RecomputeOf(plan)})
	if err != nil {
		return AblationRow{Name: name}
	}
	c := plan.Counts()
	return AblationRow{
		Name: name, Feasible: true,
		TimeSeconds: res.Time,
		PeakGiB:     float64(res.PeakBytes) / (1 << 30),
		Extra: fmt.Sprintf("(swap %.1f GiB, recompute %.1f GiB, %d splits, %d rc-ops)",
			float64(c.SwapBytes)/(1<<30), float64(c.RecomputeBytes)/(1<<30), c.SplitOps, res.RecomputedOps),
	}
}

// AblationGreedyOrdering compares the paper's min-ΔT/ΔM greedy against
// largest-tensor-first and swap-only candidate selection (DESIGN.md
// ablation 1) on a memory-over-subscribed VGG-16.
func (s *Sweep) AblationGreedyOrdering() (AblationReport, error) {
	p, err := s.prepare("vgg16", models.Config{BatchSize: 256}, device.TitanRTX)
	if err != nil {
		return AblationReport{}, err
	}
	cap := p.Lv.Peak * 70 / 100
	return AblationReport{
		Title: "Ablation 1: candidate selection (vgg16 b=256, 70% of unmanaged peak)",
		Rows: []AblationRow{
			planWith(p, "greedy min dT/dM (paper)", cap, core.Options{}),
			planWith(p, "largest-tensor-first", cap, core.Options{PreferLargest: true}),
			planWith(p, "swap-only", cap, core.Options{DisableRecompute: true}),
		},
	}, nil
}

// AblationRecomputeStrategy compares memory-centric, speed-centric and
// LRU-hybrid recomputation (paper Sec. V-D; DESIGN.md ablation 2) on a
// checkpoint-heavy plan.
func (s *Sweep) AblationRecomputeStrategy() (AblationReport, error) {
	p, err := s.prepare("vgg16", models.Config{BatchSize: 192}, device.TitanRTX)
	if err != nil {
		return AblationReport{}, err
	}
	plan, _, err := p.PlanPolicy("checkpoints", core.Options{})
	if err != nil {
		return AblationReport{}, err
	}
	rows := make([]AblationRow, 0, 3)
	for _, st := range []sim.RecomputeStrategy{sim.MemoryCentric, sim.SpeedCentric, sim.LRURecompute} {
		res, err := p.Simulate(plan, sim.Options{Recompute: st})
		if err != nil {
			rows = append(rows, AblationRow{Name: st.String()})
			continue
		}
		rows = append(rows, AblationRow{
			Name: st.String(), Feasible: true,
			TimeSeconds: res.Time, PeakGiB: float64(res.PeakBytes) / (1 << 30),
			Extra: fmt.Sprintf("(%d rc-ops, %.3fs rc-time)", res.RecomputedOps, res.RecomputeTime),
		})
	}
	return AblationReport{Title: "Ablation 2: recomputation strategy (vgg16 b=192, checkpoints plan)", Rows: rows}, nil
}

// AblationSplitLookahead measures the bottleneck-lookahead window for
// split candidates (DESIGN.md ablation 3).
func (s *Sweep) AblationSplitLookahead() (AblationReport, error) {
	// Near the feasibility frontier splitting (with micro-granular
	// restore) is load-bearing, so the lookahead decides whether the
	// planner finds the split that breaks each backward bottleneck.
	p, err := s.prepare("vgg16", models.Config{BatchSize: 440}, device.TitanRTX)
	if err != nil {
		return AblationReport{}, err
	}
	return AblationReport{
		Title: "Ablation 3: split-candidate lookahead (vgg16 b=440, device capacity)",
		Rows: []AblationRow{
			planWith(p, "lookahead 8 (default)", 0, core.Options{SplitLookahead: 8}),
			planWith(p, "lookahead 2", 0, core.Options{SplitLookahead: 2}),
			planWith(p, "bottleneck op only", 0, core.Options{SplitLookahead: -1}),
		},
	}, nil
}

// AblationTieBreak measures the earlier-generated-tensor preference on
// near-tied ratios (the paper's Sec. IV-C observation; DESIGN.md
// ablation 4).
func (s *Sweep) AblationTieBreak() (AblationReport, error) {
	p, err := s.prepare("resnet50", models.Config{BatchSize: 256}, device.TitanRTX)
	if err != nil {
		return AblationReport{}, err
	}
	cap := p.Lv.Peak * 70 / 100
	return AblationReport{
		Title: "Ablation 4: earlier-generated tie-break (resnet50 b=256, 70% of peak)",
		Rows: []AblationRow{
			planWith(p, "earlier-generated first", cap, core.Options{}),
			planWith(p, "no tie-break", cap, core.Options{DisableGenTieBreak: true}),
		},
	}, nil
}

// AblationPoolStrategy compares best-fit and first-fit placement
// (paper Sec. V-C's choice; DESIGN.md ablation 5) under the same
// TSPLIT plan.
func (s *Sweep) AblationPoolStrategy() (AblationReport, error) {
	p, err := s.prepare("vgg16", models.Config{BatchSize: 320}, device.TitanRTX)
	if err != nil {
		return AblationReport{}, err
	}
	plan, _, err := p.PlanPolicy("tsplit", core.Options{})
	if err != nil {
		return AblationReport{}, err
	}
	rows := make([]AblationRow, 0, 2)
	for _, st := range []memorypool.Strategy{memorypool.BestFit, memorypool.FirstFit} {
		res, err := p.Simulate(plan, sim.Options{Recompute: prep.RecomputeOf(plan), PoolStrategy: st})
		if err != nil {
			rows = append(rows, AblationRow{Name: st.String()})
			continue
		}
		rows = append(rows, AblationRow{
			Name: st.String(), Feasible: true,
			TimeSeconds: res.Time, PeakGiB: float64(res.PeakBytes) / (1 << 30),
			Extra: fmt.Sprintf("(%d compactions, %.1f GiB moved)", res.Compactions, float64(res.MovedBytes)/(1<<30)),
		})
	}
	return AblationReport{Title: "Ablation 5: pool placement strategy (vgg16 b=320, tsplit plan)", Rows: rows}, nil
}

// AllAblations runs every design-choice sweep of DESIGN.md §4.
func (s *Sweep) AllAblations() ([]AblationReport, error) {
	fns := []func() (AblationReport, error){
		s.AblationGreedyOrdering,
		s.AblationRecomputeStrategy,
		s.AblationSplitLookahead,
		s.AblationTieBreak,
		s.AblationPoolStrategy,
	}
	// The sweeps prepare and simulate disjoint workloads, so they run
	// concurrently; reports keep the DESIGN.md §4 order.
	out := make([]AblationReport, len(fns))
	errs := make([]error, len(fns))
	s.forEach(len(fns), func(i int) {
		out[i], errs[i] = fns[i]()
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}
