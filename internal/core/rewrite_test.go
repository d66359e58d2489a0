package core

import (
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/tensor"
)

// augment plans under pressure and materializes the augmented graph.
func augment(t *testing.T, model string, cfg models.Config, capFrac int) (*testbed, *Plan, *Augmented) {
	t.Helper()
	tb := newTestbed(t, model, cfg)
	plan := tb.plan(t, Options{Capacity: tb.lv.Peak * int64(capFrac) / 100, FragmentationReserve: -1})
	ag, err := Augment(tb.g, tb.sched, tb.lv, plan)
	if err != nil {
		t.Fatal(err)
	}
	return tb, plan, ag
}

func TestAugmentEmptyPlanIsIsomorphic(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	ag, err := Augment(tb.g, tb.sched, tb.lv, NewPlan("base", tb.dev))
	if err != nil {
		t.Fatal(err)
	}
	if len(ag.G.Ops) != len(tb.g.Ops) {
		t.Fatalf("augmented has %d ops, original %d", len(ag.G.Ops), len(tb.g.Ops))
	}
	if ag.SwapOuts+ag.SwapIns+ag.SplitOps+ag.MergeOps+ag.RecomputeOps != 0 {
		t.Fatal("empty plan inserted memory operators")
	}
}

func TestAugmentedGraphSchedulable(t *testing.T) {
	_, _, ag := augment(t, "vgg16", models.Config{BatchSize: 64}, 60)
	s, err := graph.BuildSchedule(ag.G)
	if err != nil {
		t.Fatalf("augmented graph does not schedule: %v", err)
	}
	if len(s.Ops) != len(ag.G.Ops) {
		t.Fatal("schedule incomplete")
	}
}

func TestAugmentInsertsMatchingSwaps(t *testing.T) {
	_, plan, ag := augment(t, "vgg16", models.Config{BatchSize: 64}, 60)
	c := plan.Counts()
	if c.Swap == 0 {
		t.Skip("plan has no swaps at this scale")
	}
	if ag.SwapOuts == 0 || ag.SwapIns == 0 {
		t.Fatalf("plan swaps %d tensors but rewrite inserted %d outs / %d ins", c.Swap, ag.SwapOuts, ag.SwapIns)
	}
	// Every SwapIn consumes a host-copy handle produced by a SwapOut.
	for _, op := range ag.G.Ops {
		if op.Kind != graph.SwapIn {
			continue
		}
		h := op.Inputs[0]
		if h.Kind != tensor.HostCopy {
			t.Fatalf("swap-in %s consumes %v, want a host copy", op.Name, h.Kind)
		}
		if h.Producer == nil || (h.Producer.Kind != graph.SwapOut && h.Producer.Kind != graph.MergeOp) {
			t.Fatalf("swap-in %s host copy has producer %v", op.Name, h.Producer)
		}
	}
}

func TestAugmentSplitsExpandToMicroOps(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	// Force a split-bearing plan.
	cap := tb.lv.Resident + tb.lv.Resident/2 + (3 << 30)
	plan, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: cap, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Splits) == 0 {
		t.Skip("no splits planned")
	}
	ag, err := Augment(tb.g, tb.sched, tb.lv, plan)
	if err != nil {
		t.Fatal(err)
	}
	if ag.SplitOps != len(plan.Splits) {
		t.Fatalf("%d split operators for %d split decisions", ag.SplitOps, len(plan.Splits))
	}
	if ag.MergeOps < len(plan.Splits) {
		t.Fatalf("%d merge operators for %d split decisions", ag.MergeOps, len(plan.Splits))
	}
	// Micro-operator multiplicity: each split decision of p_num p adds
	// p micro instances mapped back to the original op.
	counts := map[*graph.Op]int{}
	for _, orig := range ag.OrigOf {
		counts[orig]++
	}
	for _, sp := range plan.Splits {
		if counts[sp.Op] != sp.PNum {
			t.Fatalf("op %s has %d micro instances, want %d", sp.Op.Name, counts[sp.Op], sp.PNum)
		}
	}
	// Micro tensors carry valid sub-shapes.
	for _, op := range ag.G.Ops {
		if op.Kind != graph.SplitOp {
			continue
		}
		shapes := make([]tensor.Shape, len(op.Outputs))
		for i, o := range op.Outputs {
			shapes[i] = o.Shape
		}
		merged, err := tensor.Merge(shapes, op.Attrs.Axis)
		if err != nil {
			t.Fatalf("split %s parts do not merge: %v", op.Name, err)
		}
		if !merged.Equal(op.Inputs[0].Shape) {
			t.Fatalf("split %s parts merge to %v, want %v", op.Name, merged, op.Inputs[0].Shape)
		}
	}
	// The augmented graph still schedules.
	if _, err := graph.BuildSchedule(ag.G); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentRecomputeDuplicatesForward(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	plan := NewPlan("test", tb.dev)
	// Recompute one mid-network activation explicitly.
	var target *graph.Tensor
	for _, x := range tb.g.Tensors {
		if x.Name == "b3.conv2.relu.y" {
			target = x
		}
	}
	if target == nil {
		t.Fatal("tensor not found")
	}
	plan.Tensors = []TensorPlan{{Tensor: target, Opt: Recompute}}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, plan, nil)
	ag, err := Augment(tb.g, tb.sched, tb.lv, plan)
	if err != nil {
		t.Fatal(err)
	}
	if ag.RecomputeOps == 0 {
		t.Fatal("no recompute operators inserted")
	}
	found := false
	for _, op := range ag.G.Ops {
		if op.Kind == graph.Recompute && op.FwdOp != nil && op.FwdOp.Name == "b3.conv2.relu" {
			found = true
		}
	}
	if !found {
		t.Fatal("recompute chain does not re-execute the producer")
	}
	if _, err := graph.BuildSchedule(ag.G); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentBackwardConsumersUseRestoredInstances(t *testing.T) {
	_, plan, ag := augment(t, "vgg16", models.Config{BatchSize: 64}, 60)
	// For every swapped original tensor, no augmented consumer scheduled
	// after the swap-out may read the pre-eviction instance.
	byOrig := map[*graph.Tensor][]*graph.Tensor{}
	for inst, orig := range ag.InstanceOf {
		byOrig[orig] = append(byOrig[orig], inst)
	}
	for _, tp := range plan.Tensors {
		if tp.Opt != Swap || tp.RestoreAt < 0 {
			continue
		}
		if len(byOrig[tp.Tensor]) < 2 {
			t.Fatalf("swapped tensor %s has no restored instance", tp.Tensor.Name)
		}
	}
}
