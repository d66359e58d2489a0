package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
)

// PlanLatRow is the planning-latency profile of one zoo model: Plan()
// on a reused planner, sampled `rounds` times and summarized as
// p50/p99 wall time.
type PlanLatRow struct {
	Model   string
	Ops     int
	Tensors int
	P50     time.Duration
	P99     time.Duration
}

// PlanLatency measures planning latency across the model zoo at a
// tight budget (58% of each model's unmanaged peak). Every sample runs
// the full greedy loop on the same planner after one unsampled run, so
// the rows measure the steady state of a reused planner's arenas, not
// their first-run growth.
//
// The reported durations come from the wall clock and vary run to
// run; everything else about the rows (models, sizes, plan outcomes)
// is deterministic.
func PlanLatency(dev device.Device, rounds int) ([]PlanLatRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	names := models.Names()
	rows := make([]PlanLatRow, 0, len(names))
	for _, model := range names {
		p, err := Prepare(model, models.Config{}, dev)
		if err != nil {
			return nil, fmt.Errorf("planlat %s: %w", model, err)
		}
		opts := core.Options{Capacity: p.Lv.Peak * 58 / 100, FragmentationReserve: -1}
		pl := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, opts)
		if _, err := pl.Plan(); err != nil { // warm the arenas
			return nil, fmt.Errorf("planlat %s: plan: %w", model, err)
		}
		samples := make([]time.Duration, rounds)
		for i := range samples {
			start := Clock()
			if _, err := pl.Plan(); err != nil {
				return nil, fmt.Errorf("planlat %s: round %d: %w", model, i, err)
			}
			samples[i] = Clock().Sub(start)
		}
		rows = append(rows, PlanLatRow{
			Model: model, Ops: len(p.Sched.Ops), Tensors: len(p.G.Tensors),
			P50: percentile(samples, 50), P99: percentile(samples, 99),
		})
	}
	return rows, nil
}

// percentile returns the pth percentile (nearest-rank) of samples;
// the slice is sorted in place.
func percentile(samples []time.Duration, p int) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := (len(samples)*p + 99) / 100
	if i > 0 {
		i--
	}
	return samples[i]
}

// RenderPlanLat renders the latency table.
func RenderPlanLat(rows []PlanLatRow) string {
	var b strings.Builder
	b.WriteString("Planning latency (reused planner, 58% of peak)\n")
	fmt.Fprintf(&b, "%-14s %6s %8s %12s %12s\n", "model", "ops", "tensors", "p50", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %8d %12s %12s\n",
			r.Model, r.Ops, r.Tensors, fmtDur(r.P50), fmtDur(r.P99))
	}
	return b.String()
}

// fmtDur prints a duration with microsecond resolution, which is the
// scale sub-millisecond planning lives at.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
}
