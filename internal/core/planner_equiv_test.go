// Golden equivalence test for the planner against its serial
// reference (serial_test.go: full memory-curve rebuild + full candidate
// rescan). The two share scoring arithmetic but differ completely in
// how the curve is maintained, how recompute chains are refreshed, and
// how candidates are reduced, so byte-identical plans across the whole
// model zoo is a strong end-to-end check of the incremental machinery.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tsplit/internal/models"
)

// canonicalPlan renders every decision of a plan, in the plan's ID
// order, so two plans can be compared byte for byte.
func canonicalPlan(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s offload=%v shard=%v\n", p.Name, p.OffloadOptimizer, p.ShardParams)
	fmt.Fprintf(&b, "time=%.17g peak=%d\n", p.PredictedTime, p.PredictedPeak)
	for _, tp := range p.Tensors {
		fmt.Fprintf(&b, "t%d %s opt=%v evict=%d restore=%d prefetch=%d micro=%d chain=%d\n",
			tp.Tensor.ID, tp.Tensor.Name, tp.Opt, tp.EvictAt, tp.RestoreAt, tp.PrefetchAt, tp.MicroRestore, tp.ChainBytes)
	}
	for _, sp := range p.Splits {
		fmt.Fprintf(&b, "op%d %s pnum=%d dim=%v inopt=%v earlyout=%v", sp.Op.ID, sp.Op.Name, sp.PNum, sp.Dim, sp.InOpt, sp.EarlyOut)
		if sp.In2 != nil {
			fmt.Fprintf(&b, " in2=%d", sp.In2.ID)
		}
		for _, t := range sp.MicroIns {
			fmt.Fprintf(&b, " micro=%d", t.ID)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPlannerSerialParallelEquivalence plans every zoo model at two
// over-subscription levels with Plan() and the serial reference and
// requires identical output — including infeasible outcomes, whose
// partial plans and errors must also agree. Plan() runs twice: on a
// fresh planner, and on a reused one that first planned the other
// budget, so the oracle also checks the pristine split configuration
// lists a reused planner takes over instead of deriving.
func TestPlannerSerialParallelEquivalence(t *testing.T) {
	// Historical: the incremental path once fanned scoring out to a
	// GOMAXPROCS-sized worker pool. The fold is single-threaded now
	// (the candidate index made scoring cheaper than handing it out),
	// but the test still runs at GOMAXPROCS=4 so any future
	// parallelism inherits the race check.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	pcts := []int64{75, 55}
	for _, model := range models.Names() {
		tb := newTestbed(t, model, models.Config{})
		opts := func(pct int64) Options {
			return Options{Capacity: tb.lv.Peak * pct / 100, FragmentationReserve: -1}
		}
		for k, pct := range pcts {
			sp, serr := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts(pct)).planSerial()
			cs := canonicalPlan(sp)
			reused := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts(pcts[1-k]))
			_, _ = reused.Plan() // the warm-up only has to leave lists behind
			reused.SetOptions(opts(pct))
			for _, side := range []struct {
				name string
				pl   *Planner
			}{
				{"fresh", NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts(pct))},
				{"reused", reused},
			} {
				pp, perr := side.pl.Plan()
				if (serr == nil) != (perr == nil) {
					t.Fatalf("%s@%d%% %s: error mismatch: serial=%v incremental=%v", model, pct, side.name, serr, perr)
				}
				if serr != nil && serr.Error() != perr.Error() {
					t.Fatalf("%s@%d%% %s: error text mismatch:\nserial:      %v\nincremental: %v", model, pct, side.name, serr, perr)
				}
				if cp := canonicalPlan(pp); cs != cp {
					t.Errorf("%s@%d%% %s: plans differ\n--- serial ---\n%s--- incremental ---\n%s", model, pct, side.name, cs, cp)
				}
			}
		}
	}
}
