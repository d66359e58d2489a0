package experiments

import (
	"fmt"
	"strings"
	"time"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/sim"
)

// SimLatRow is the simulation-latency profile of one zoo model: a cold
// sim.New(...).Run() against the pooled-arena path, each sampled
// `rounds` times and summarized as p50/p99 wall time.
type SimLatRow struct {
	Model     string
	Ops       int
	Tensors   int
	ColdP50   time.Duration
	ColdP99   time.Duration
	PooledP50 time.Duration
	PooledP99 time.Duration
}

// PooledSpeedup is the p50 cold/pooled ratio, the number the ISSUE
// gates at >= 5x on BERT-Large.
func (r SimLatRow) PooledSpeedup() float64 {
	if r.PooledP50 <= 0 {
		return 0
	}
	return float64(r.ColdP50) / float64(r.PooledP50)
}

// SimLatency measures simulation latency across the model zoo. Each
// model runs its tsplit plan at a tight budget (70% of its unmanaged
// peak), the pressured regime where swaps, recomputation, and split
// execution are all live. Cold samples pay a fresh simulator per run;
// pooled samples recycle one arena through a SimPool. Both replay the
// identical event sequence, so the spread is pure bookkeeping cost.
//
// The reported durations come from the wall clock and vary run to run;
// everything else about the rows (models, sizes, outcomes) is
// deterministic.
func SimLatency(dev device.Device, rounds int) ([]SimLatRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	names := models.Names()
	rows := make([]SimLatRow, 0, len(names))
	for _, model := range names {
		p, err := Prepare(model, models.Config{}, dev)
		if err != nil {
			return nil, fmt.Errorf("simlat %s: %w", model, err)
		}
		cap := p.Lv.Peak * 70 / 100
		plan, err := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev,
			core.Options{Capacity: cap, FragmentationReserve: -1}).Plan()
		if err != nil {
			return nil, fmt.Errorf("simlat %s: planning: %w", model, err)
		}
		opts := sim.Options{Capacity: cap, Recompute: sim.LRURecompute}

		cold := make([]time.Duration, rounds)
		for i := range cold {
			start := Clock()
			if _, err := sim.New(p.G, p.Sched, p.Lv, plan, p.Dev, opts).Run(); err != nil {
				return nil, fmt.Errorf("simlat %s: cold round %d: %w", model, i, err)
			}
			cold[i] = Clock().Sub(start)
		}

		pool := sim.NewSimPool()
		warm := func() error { // one unsampled run so growth is off the clock
			s := pool.Get(p.G, p.Sched, p.Lv, plan, p.Dev, opts)
			defer pool.Put(s)
			_, err := s.Run()
			return err
		}
		if err := warm(); err != nil {
			return nil, fmt.Errorf("simlat %s: warm-up: %w", model, err)
		}
		pooled := make([]time.Duration, rounds)
		for i := range pooled {
			s := pool.Get(p.G, p.Sched, p.Lv, plan, p.Dev, opts)
			start := Clock()
			_, err := s.Run()
			pooled[i] = Clock().Sub(start)
			pool.Put(s)
			if err != nil {
				return nil, fmt.Errorf("simlat %s: pooled round %d: %w", model, i, err)
			}
		}

		rows = append(rows, SimLatRow{
			Model: model, Ops: len(p.Sched.Ops), Tensors: len(p.G.Tensors),
			ColdP50: percentile(cold, 50), ColdP99: percentile(cold, 99),
			PooledP50: percentile(pooled, 50), PooledP99: percentile(pooled, 99),
		})
	}
	return rows, nil
}

// RenderSimLat renders the latency table.
func RenderSimLat(rows []SimLatRow) string {
	var b strings.Builder
	b.WriteString("Simulation latency (tsplit plan at 70% of unmanaged peak)\n")
	fmt.Fprintf(&b, "%-14s %6s %8s %10s %10s %10s %10s %8s\n",
		"model", "ops", "tensors", "cold p50", "cold p99",
		"pooled p50", "pooled p99", "pooled×")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %8d %10s %10s %10s %10s %7.1fx\n",
			r.Model, r.Ops, r.Tensors,
			fmtDur(r.ColdP50), fmtDur(r.ColdP99),
			fmtDur(r.PooledP50), fmtDur(r.PooledP99),
			r.PooledSpeedup())
	}
	return b.String()
}
