package experiments

import (
	"fmt"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/faults"
	"tsplit/internal/models"
	"tsplit/internal/resilient"
)

// FaultRow is one severity cell of the fault-robustness sweep.
type FaultRow struct {
	Severity float64
	// Feasible is false only when even the swap-all fallback cannot
	// train the configuration under injected faults.
	Feasible bool
	// Throughput in samples/second under injection.
	Throughput float64
	// Slowdown relative to the fault-free row (1.0 = no loss).
	Slowdown float64
	// Stages is the degradation-ladder trail ("plan", "plan→replan",
	// "plan→replan→swap-all").
	Stages string
	// Retries / Exhausted / Degraded / CapacityEvents summarize the
	// injected-fault activity the run absorbed.
	Retries, Exhausted, Degraded, CapacityEvents int
}

// FaultReport is the throughput-vs-fault-severity sweep of one
// workload: how gracefully the planner + degradation ladder trade
// throughput for survival as the environment gets more hostile.
type FaultReport struct {
	Title string
	Rows  []FaultRow
}

// Render draws the sweep as a text table.
func (r FaultReport) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, r.Title)
	fmt.Fprintf(&b, "  %-9s %-12s %-9s %-22s %s\n",
		"severity", "samples/s", "slowdown", "ladder", "faults absorbed")
	for _, row := range r.Rows {
		if !row.Feasible {
			fmt.Fprintf(&b, "  %-9.2f aborted\n", row.Severity)
			continue
		}
		fmt.Fprintf(&b, "  %-9.2f %-12.1f %-9.2f %-22s %d retries (%d exhausted), %d degraded xfers, %d capacity events\n",
			row.Severity, row.Throughput, row.Slowdown, row.Stages,
			row.Retries, row.Exhausted, row.Degraded, row.CapacityEvents)
	}
	return b.String()
}

// FaultSweep measures throughput across fault severities for one model
// under the resilient runner: every cell plans at a safety margin,
// replans on injected OOM, and falls back to swap-all before aborting.
// The budget is the device's — for the paper's evaluation pairings the
// unmanaged peak already exceeds it, so the planner is under real
// memory pressure, while the swap-all floor stays reachable even when
// a full-severity capacity shrink steals its worst-case bite.
func FaultSweep(model string, cfg models.Config, dev device.Device, seed uint64) (FaultReport, error) {
	p, err := prepare(model, cfg, dev)
	if err != nil {
		return FaultReport{}, err
	}
	severities := []float64{0, 0.15, 0.3, 0.6, 1.0}
	rows := make([]FaultRow, len(severities))
	// Cells share nothing but read-only inputs; sweep them concurrently.
	forEach(len(severities), func(i int) {
		sev := severities[i]
		out, err := resilient.Run(p, resilient.Config{Faults: faults.Config{Seed: seed, Severity: sev}})
		if err != nil {
			rows[i] = FaultRow{Severity: sev}
			return
		}
		kinds := make([]string, 0, len(out.Stages))
		for _, st := range out.Stages {
			kinds = append(kinds, st.Kind)
		}
		f := out.Result.Faults
		rows[i] = FaultRow{
			Severity:       sev,
			Feasible:       true,
			Throughput:     out.Result.Throughput(cfg.BatchSize),
			Stages:         strings.Join(kinds, "→"),
			Retries:        f.SwapRetries,
			Exhausted:      f.SwapExhausted,
			Degraded:       f.BandwidthEvents,
			CapacityEvents: f.CapacityEvents,
		}
	})
	for i := range rows {
		if rows[i].Feasible && rows[0].Feasible && rows[i].Throughput > 0 {
			rows[i].Slowdown = rows[0].Throughput / rows[i].Throughput
		}
	}
	return FaultReport{
		Title: fmt.Sprintf("Fault robustness: %s b=%d on %s (seed %d)",
			model, cfg.BatchSize, dev.Name, seed),
		Rows: rows,
	}, nil
}
