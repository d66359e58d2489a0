package core

import (
	"errors"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
)

// testbed prepares a model for planner tests.
type testbed struct {
	g     *graph.Graph
	sched *graph.Schedule
	lv    *graph.Liveness
	prof  *profiler.Profile
	dev   device.Device
}

func newTestbed(t *testing.T, model string, cfg models.Config) *testbed {
	t.Helper()
	g, err := models.Build(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	return &testbed{g: g, sched: sched, lv: lv, prof: profiler.New(device.TitanRTX, sched), dev: device.TitanRTX}
}

func (tb *testbed) plan(t *testing.T, opts Options) *Plan {
	t.Helper()
	p, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts).Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	// Every plan any planner test produces must also satisfy the static
	// safety invariants — the verifier is an independent oracle, so a
	// planner bug and a verifier bug cannot cancel out silently.
	ceiling := opts.Capacity
	if ceiling == 0 {
		ceiling = tb.dev.MemBytes
	}
	for _, v := range VerifyAt(p, tb.g, tb.sched, tb.lv, ceiling) {
		t.Errorf("plan invariant: %s", v)
	}
	return p
}

func TestEmptyPlanMatchesLiveness(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	ms := NewMemSim(tb.g, tb.sched, tb.lv)
	mem, peak, _ := ms.Curve(NewPlan("base", tb.dev))
	if peak != tb.lv.Peak {
		t.Fatalf("empty plan peak %d != liveness peak %d", peak, tb.lv.Peak)
	}
	for i := range mem {
		if mem[i] != tb.lv.MemAt[i] {
			t.Fatalf("mem[%d] mismatch", i)
		}
	}
}

func TestSwapReducesPeak(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 32})
	ms := NewMemSim(tb.g, tb.sched, tb.lv)
	plan := NewPlan("test", tb.dev)
	// Swap the largest feature map.
	var big *graph.Tensor
	for _, x := range tb.g.Tensors {
		if x.Kind == tensor.FeatureMap && (big == nil || x.Bytes() > big.Bytes()) {
			big = x
		}
	}
	plan.Tensors = []TensorPlan{{Tensor: big, Opt: Swap}}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, plan, nil)
	_, peak, _ := ms.Curve(plan)
	if peak >= tb.lv.Peak {
		t.Fatalf("swapping the largest tensor did not reduce the peak: %d vs %d", peak, tb.lv.Peak)
	}
}

func TestPlannerNoopWhenItFits(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	p := tb.plan(t, Options{})
	if len(p.Tensors) != 0 || len(p.Splits) != 0 {
		t.Fatalf("plan should be empty when memory suffices: %v", p)
	}
}

func TestPlannerMeetsCapacity(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	cap := tb.lv.Peak * 60 / 100
	p := tb.plan(t, Options{Capacity: cap, FragmentationReserve: -1})
	ms := NewMemSim(tb.g, tb.sched, tb.lv)
	if _, peak, _ := ms.Curve(p); peak > cap {
		t.Fatal("planned peak exceeds the capacity constraint")
	}
	if p.PredictedPeak > cap {
		t.Fatal("PredictedPeak exceeds capacity")
	}
	if p.PredictedTime < tb.prof.Total() {
		t.Fatal("predicted time below the ideal time")
	}
}

func TestPlannerInfeasibleTinyCapacity(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	_, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: 1 << 20, FragmentationReserve: -1}).Plan()
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
}

func TestPlannerSplitsUnderExtremePressure(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	// Cap just above the resident set so splitting becomes mandatory.
	cap := tb.lv.Resident + tb.lv.Resident/2 + (3 << 30)
	p, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: cap, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Fatalf("plan under %d: %v", cap, err)
	}
	if len(p.Splits) == 0 {
		t.Fatal("extreme pressure should force split decisions")
	}
}

func TestNoSplitAblationUsesNoSplits(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	cap := tb.lv.Peak * 60 / 100
	p := tb.plan(t, Options{Capacity: cap, DisableSplit: true, FragmentationReserve: -1})
	if len(p.Splits) != 0 {
		t.Fatal("DisableSplit plan contains splits")
	}
	if p.Name != "tsplit-nosplit" {
		t.Fatalf("plan name %q", p.Name)
	}
}

func TestSplitEnablesSmallerCapacityThanNoSplit(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	// Find a capacity the full planner satisfies but the no-split
	// ablation cannot.
	lo, hi := tb.lv.Resident, tb.lv.Peak
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		_, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
			Options{Capacity: mid, DisableSplit: true, FragmentationReserve: -1}).Plan()
		if err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	// hi is (roughly) the no-split feasibility frontier; the split
	// planner must go lower.
	_, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: lo, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Fatalf("split planner cannot reach the no-split frontier %d: %v", lo, err)
	}
}

func TestPlanDecisionsAreConsistent(t *testing.T) {
	tb := newTestbed(t, "resnet50", models.Config{BatchSize: 48})
	cap := tb.lv.Peak * 55 / 100
	p := tb.plan(t, Options{Capacity: cap, FragmentationReserve: -1})
	for _, tp := range p.Tensors {
		if tp.Opt == Reside {
			continue
		}
		if tp.EvictAt < 0 || tp.EvictAt >= len(tb.sched.Ops) {
			t.Fatalf("%s evict index %d out of range", tp.Tensor.Name, tp.EvictAt)
		}
		if tp.RestoreAt >= 0 && tp.RestoreAt <= tp.EvictAt {
			t.Fatalf("%s restores at %d before eviction at %d", tp.Tensor.Name, tp.RestoreAt, tp.EvictAt)
		}
		if tp.Opt == Swap && tp.RestoreAt >= 0 &&
			(tp.PrefetchAt > tp.RestoreAt || tp.PrefetchAt <= tp.EvictAt && tp.MicroRestore <= 1 && tp.PrefetchAt != tp.EvictAt) {
			if tp.PrefetchAt > tp.RestoreAt {
				t.Fatalf("%s prefetch %d after restore %d", tp.Tensor.Name, tp.PrefetchAt, tp.RestoreAt)
			}
		}
		// Eviction must not orphan a use inside the gap.
		for _, c := range tp.Tensor.Consumers {
			u := tb.sched.Index[c]
			if u > tp.EvictAt && tp.RestoreAt >= 0 && u < tp.RestoreAt {
				t.Fatalf("%s consumer at %d falls inside eviction gap (%d, %d)", tp.Tensor.Name, u, tp.EvictAt, tp.RestoreAt)
			}
		}
	}
	for _, sp := range p.Splits {
		if sp.PNum < 2 {
			t.Fatalf("split of %s with p_num %d", sp.Op.Name, sp.PNum)
		}
		in, out := SplitTensors(sp.Op, sp.Dim)
		if in == nil || out == nil {
			t.Fatalf("split of %s along %v has no carvable tensors", sp.Op.Name, sp.Dim)
		}
	}
}

func TestPlanCountsAndDescribe(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	p := tb.plan(t, Options{Capacity: tb.lv.Peak * 60 / 100, FragmentationReserve: -1})
	c := p.Counts()
	if c.Swap+c.Recompute != len(p.Tensors) {
		t.Fatalf("counts %+v inconsistent with %d decisions", c, len(p.Tensors))
	}
	if c.SwapBytes <= 0 && c.RecomputeBytes <= 0 {
		t.Fatal("no bytes planned?")
	}
	if p.Describe() == "" || p.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestRecomputeChain(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	a := g.ReLU("a", x)
	b := g.ReLU("b", a)
	c := g.ReLU("c", b)
	avail := func(tt *graph.Tensor) bool { return tt == x }
	chain, err := RecomputeChain(c, avail, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0] != a.Producer || chain[2] != c.Producer {
		t.Fatal("chain out of order")
	}
	// Bounded length. The messages are quoted by the OOM and verify
	// goldens, so they are pinned to the byte: the bound names the
	// target, the missing producer names the source.
	_, err = RecomputeChain(c, avail, 2)
	if err == nil || err.Error() != "core: recompute chain for c.y exceeds 2 ops" {
		t.Fatalf("chain over maxLen: %v", err)
	}
	// Unavailable source.
	_, err = RecomputeChain(c, func(*graph.Tensor) bool { return false }, 10)
	if err == nil || err.Error() != "core: recompute source x has no producer and is not available" {
		t.Fatalf("unavailable source: %v", err)
	}
	// A diamond visits the shared producer once: a feeds both branches.
	d := g.Add("d", b, g.ReLU("b2", a))
	chain, err = RecomputeChain(d, avail, 4)
	if err != nil || len(chain) != 4 || chain[0] != a.Producer || chain[3] != d.Producer {
		t.Fatalf("diamond chain %v, %v", chain, err)
	}
}

func TestSplitTensorsSampleDim(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.NewShape(8, 3, 16, 16), tensor.Float32)
	y := g.Conv2D("c", x, 4, 3, 1, 1)
	in, out := SplitTensors(y.Producer, tensor.DimSample)
	if in != x || out != y {
		t.Fatal("conv sample split should carve x and y")
	}
	// Parameter dim carves the weight.
	win, wout := SplitTensors(y.Producer, tensor.DimParam)
	if win == nil || win.Kind != tensor.Parameter || wout != y {
		t.Fatal("conv param split should carve the weight")
	}
	// BatchNorm is sample-splittable (two-pass stats).
	bn := g.BatchNorm("bn", y)
	if in, _ := SplitTensors(bn.Producer, tensor.DimSample); in != y {
		t.Fatal("batchnorm should be sample-splittable")
	}
	// Concat is not splittable.
	cat := g.Concat("cat", 1, y, y)
	if in, _ := SplitTensors(cat.Producer, tensor.DimSample); in != nil {
		t.Fatal("concat should not be splittable")
	}
}

func TestMergeModeClassification(t *testing.T) {
	g := graph.New()
	x := g.Input("x", tensor.NewShape(8, 4, 8, 8), tensor.Float32)
	y := g.ReLU("r", x) // out size == in size
	op := y.Producer
	if m := MergeModeFor(op, OpSplit{Op: op, PNum: 4, Dim: tensor.DimSample, InOpt: Recompute}); m != MergeCarveInPlace {
		t.Fatalf("same-size discard split should stage in place, got %v", m)
	}
	if m := MergeModeFor(op, OpSplit{Op: op, PNum: 4, Dim: tensor.DimSample, InOpt: Reside, MicroIns: []*graph.Tensor{x}}); m != MergeRestoreInPlace {
		t.Fatalf("micro-restored same-size input should restore-stage, got %v", m)
	}
	if m := MergeModeFor(op, OpSplit{Op: op, PNum: 4, Dim: tensor.DimSample, InOpt: Reside}); m != MergePhysical {
		t.Fatalf("reside split should merge physically, got %v", m)
	}
	if st := RestoreStageTensor(op, OpSplit{Op: op, Dim: tensor.DimSample, MicroIns: []*graph.Tensor{x}}); st != x {
		t.Fatal("RestoreStageTensor should find x")
	}
}

func TestFinalizeWindowsLargestGap(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	plan := NewPlan("test", tb.dev)
	for _, x := range tb.g.Tensors {
		if x.Kind == tensor.FeatureMap {
			plan.Tensors = append(plan.Tensors, TensorPlan{Tensor: x, Opt: Swap})
		}
	}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, plan, nil)
	for _, tp := range plan.Tensors {
		if tp.RestoreAt <= tp.EvictAt {
			t.Fatalf("%s: restore %d <= evict %d", tp.Tensor.Name, tp.RestoreAt, tp.EvictAt)
		}
		if tp.PrefetchAt > tp.RestoreAt || tp.PrefetchAt <= tp.EvictAt {
			t.Fatalf("%s: prefetch %d outside (%d, %d]", tp.Tensor.Name, tp.PrefetchAt, tp.EvictAt, tp.RestoreAt)
		}
	}
}

func TestFinalizeWindowsDropsUseless(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	plan := NewPlan("test", tb.dev)
	// The loss tensor has no gap worth evicting across.
	plan.Tensors = []TensorPlan{{Tensor: tb.g.Loss, Opt: Swap}}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, plan, nil)
	if _, ok := plan.Tensor(tb.g.Loss.ID); ok || len(plan.Tensors) != 0 {
		t.Fatal("gapless tensor decision should be dropped")
	}
}
