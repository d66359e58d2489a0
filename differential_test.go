package tsplit_test

import (
	"testing"

	"tsplit"
	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/sim"
)

// TestDifferentialPeakNeverExceedsPrediction is the planner/runtime
// differential gate: for every evaluation model and every policy that
// can train it, the MemSim curve's predicted peak must be an executable
// envelope — run with the device capacity clamped to the prediction
// (plus a 1 MiB allowance for the pool's 256-byte allocation rounding,
// which MemSim does not model), the runtime must finish without OOM and
// its observed peak pool usage must stay inside that envelope. The
// planner admits plans on the strength of the curve — if the runtime
// needed more memory than predicted, "verified under budget" would mean
// nothing. The comparison runs with MemoryCentric recompute (free
// eagerly, exactly what MemSim models); the LRU strategy deliberately
// caches above the curve when capacity allows, and with headroom the
// pool legitimately floats above the curve by deferring evictions.
func TestDifferentialPeakNeverExceedsPrediction(t *testing.T) {
	const alignSlack = 1 << 20
	cases := []struct {
		model string
		batch int
		dev   tsplit.Device
	}{
		{"vgg16", 96, tsplit.GTX1080Ti},
		{"resnet50", 64, tsplit.TitanRTX},
		{"inceptionv4", 32, tsplit.TitanRTX},
		{"bert-large", 16, tsplit.TitanRTX},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			w, err := tsplit.Load(tc.model, tsplit.ModelConfig{BatchSize: tc.batch}, tc.dev)
			if err != nil {
				t.Fatal(err)
			}
			plans := map[string]*tsplit.Plan{}
			if p, err := w.Plan(tsplit.PlanOptions{}); err == nil {
				plans["tsplit"] = p
			} else {
				t.Fatalf("tsplit planner must handle the paper's configurations: %v", err)
			}
			for _, policy := range baselines.Names {
				if p, err := w.PlanBaseline(policy); err == nil {
					plans[policy] = p
				}
			}
			ms := core.NewMemSim(w.G, w.Sched, w.Lv)
			for _, name := range append([]string{"tsplit"}, baselines.Names...) {
				plan, ok := plans[name]
				if !ok {
					continue
				}
				_, predicted, _ := ms.Curve(plan)
				envelope := predicted + alignSlack
				res, err := sim.New(w.G, w.Sched, w.Lv, plan, w.Dev, sim.Options{
					Capacity:        envelope,
					Recompute:       sim.MemoryCentric,
					CollectTimeline: true,
				}).Run()
				if err != nil {
					t.Errorf("%s: runtime cannot execute inside the predicted envelope %d: %v",
						name, envelope, err)
					continue
				}
				if res.PeakBytes > envelope {
					t.Errorf("%s: observed peak %d exceeds MemSim prediction %d (by %d bytes)",
						name, res.PeakBytes, predicted, res.PeakBytes-predicted)
				}
				if len(res.Timeline) == 0 {
					t.Fatalf("%s: no timeline collected", name)
				}
				for _, tp := range res.Timeline {
					if tp.MemUsed > envelope {
						t.Errorf("%s: op %d (%s) pool usage %d exceeds prediction %d",
							name, tp.OpIndex, tp.Name, tp.MemUsed, predicted)
						break
					}
				}
			}
		})
	}
}
