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
	"sort"
	"strings"
	"testing"

	"tsplit/internal/models"
)

// canonicalPlan renders every decision of a plan in a deterministic
// order (maps serialized by sorted key) so two plans can be compared
// byte for byte.
func canonicalPlan(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s offload=%v shard=%v\n", p.Name, p.OffloadOptimizer, p.ShardParams)
	fmt.Fprintf(&b, "time=%.17g peak=%d\n", p.PredictedTime, p.PredictedPeak)
	tids := make([]int, 0, len(p.Tensors))
	for id := range p.Tensors {
		tids = append(tids, id)
	}
	sort.Ints(tids)
	for _, id := range tids {
		tp := p.Tensors[id]
		fmt.Fprintf(&b, "t%d %s opt=%v evict=%d restore=%d prefetch=%d micro=%d chain=%d\n",
			id, tp.Tensor.Name, tp.Opt, tp.EvictAt, tp.RestoreAt, tp.PrefetchAt, tp.MicroRestore, tp.ChainBytes)
	}
	oids := make([]int, 0, len(p.Splits))
	for id := range p.Splits {
		oids = append(oids, id)
	}
	sort.Ints(oids)
	for _, id := range oids {
		sp := p.Splits[id]
		fmt.Fprintf(&b, "op%d %s pnum=%d dim=%v inopt=%v earlyout=%v", id, sp.Op.Name, sp.PNum, sp.Dim, sp.InOpt, sp.EarlyOut)
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
// partial plans and errors must also agree.
func TestPlannerSerialParallelEquivalence(t *testing.T) {
	// Historical: the incremental path once fanned scoring out to a
	// GOMAXPROCS-sized worker pool. The fold is single-threaded now
	// (the candidate index made scoring cheaper than handing it out),
	// but the test still runs at GOMAXPROCS=4 so any future
	// parallelism inherits the race check.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, model := range models.Names() {
		for _, pct := range []int64{75, 55} {
			tb := newTestbed(t, model, models.Config{})
			capacity := tb.lv.Peak * pct / 100
			run := func(serial bool) (*Plan, error) {
				opts := Options{Capacity: capacity, FragmentationReserve: -1}
				pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts)
				if serial {
					return pl.planSerial()
				}
				return pl.Plan()
			}
			sp, serr := run(true)
			pp, perr := run(false)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s@%d%%: error mismatch: serial=%v parallel=%v", model, pct, serr, perr)
			}
			if serr != nil && serr.Error() != perr.Error() {
				t.Fatalf("%s@%d%%: error text mismatch:\nserial:   %v\nparallel: %v", model, pct, serr, perr)
			}
			cs, cp := canonicalPlan(sp), canonicalPlan(pp)
			if cs != cp {
				t.Errorf("%s@%d%%: plans differ\n--- serial ---\n%s--- parallel ---\n%s", model, pct, cs, cp)
			}
		}
	}
}
