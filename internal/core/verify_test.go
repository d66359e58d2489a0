package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
	"tsplit/internal/workload"
)

// planUnderPressure plans the testbed's model against a budget tight
// enough to force real swap/recompute/split decisions, and returns the
// plan plus the ceiling it was planned for.
func planUnderPressure(t *testing.T, tb *testbed) (*Plan, int64) {
	t.Helper()
	cap := tb.lv.Peak * 6 / 10
	p := tb.plan(t, Options{Capacity: cap})
	return p, cap
}

func mustVerifyClean(t *testing.T, tb *testbed, p *Plan, capacity int64) {
	t.Helper()
	for _, v := range VerifyAt(p, tb.g, tb.sched, tb.lv, capacity) {
		t.Errorf("unexpected violation: %s", v)
	}
}

func TestVerifyPlannerPlanIsClean(t *testing.T) {
	for _, model := range []string{"vgg16", "resnet50"} {
		t.Run(model, func(t *testing.T) {
			tb := newTestbed(t, model, models.Config{BatchSize: 16})
			p, cap := planUnderPressure(t, tb)
			if c := p.Counts(); c.Swap+c.Recompute == 0 {
				t.Fatalf("pressure plan made no decisions; tighten the budget")
			}
			mustVerifyClean(t, tb, p, cap)
		})
	}
}

func TestVerifyBaselinePlansAreClean(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 16})
	// The all-reside plan is trivially safe at unlimited capacity.
	mustVerifyClean(t, tb, NewPlan("base", tb.dev), 0)
	// And FinalizeWindows-produced swap windows must satisfy the same
	// invariants the planner's do.
	p := NewPlan("vdnn-style", tb.dev)
	for _, tn := range tb.g.Tensors {
		if tn.Kind == tensor.FeatureMap && len(tn.Consumers) >= 2 && tn.Bytes() > 1<<20 {
			p.Tensors = append(p.Tensors, TensorPlan{Tensor: tn, Opt: Swap})
		}
	}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, p, nil)
	mustVerifyClean(t, tb, p, 0)
}

// requireViolation asserts that at least one violation of the named
// invariant is reported, and that no *other* invariant fires unless
// allowed — mutations should trip exactly the checks they break.
func requireViolation(t *testing.T, vs []Violation, invariant string, allowOthers ...string) {
	t.Helper()
	found := false
	allowed := map[string]bool{invariant: true}
	for _, a := range allowOthers {
		allowed[a] = true
	}
	for _, v := range vs {
		if v.Invariant == invariant {
			found = true
		}
		if !allowed[v.Invariant] {
			t.Errorf("unexpected %s violation: %s", v.Invariant, v)
		}
	}
	if !found {
		t.Fatalf("expected a %q violation, got %v", invariant, vs)
	}
}

// firstSwap returns the position in p.Tensors of the first
// whole-restored swap decision.
func firstSwap(p *Plan) (int, bool) {
	k := slices.IndexFunc(p.Tensors, func(tp TensorPlan) bool {
		return tp.Opt == Swap && tp.MicroRestore <= 1 && tp.RestoreAt >= 0
	})
	return k, k >= 0
}

func TestVerifyCapacityViolation(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	ms := NewMemSim(tb.g, tb.sched, tb.lv)
	base := NewPlan("base", tb.dev)
	_, peak, _ := ms.Curve(base)
	requireViolation(t, VerifyAt(base, tb.g, tb.sched, tb.lv, peak-1), "capacity")
	mustVerifyClean(t, tb, base, peak)
}

func TestVerifyRestoreBeforeUseViolation(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 16})
	p, cap := planUnderPressure(t, tb)
	k, ok := firstSwap(p)
	if !ok {
		t.Fatal("pressure plan has no swap decision to mutate")
	}
	tp := p.Tensors[k]
	tp.RestoreAt = tp.EvictAt // restored exactly when evicted: never legal
	p.Tensors[k] = tp
	requireViolation(t, VerifyAt(p, tb.g, tb.sched, tb.lv, cap), "restore-before-use",
		// Collapsing the window can also starve a recompute chain that
		// relied on the tensor being back by its old RestoreAt.
		"recompute-chain")
}

func TestVerifyConsumerInEvictionGap(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	// Evict a multi-consumer tensor right at production and only restore
	// at its last use: every intermediate consumer sits in the gap.
	var victim *graph.Tensor
	for _, tn := range tb.g.Tensors {
		if tn.Kind != tensor.FeatureMap || tn.Producer == nil {
			continue
		}
		mid := 0
		first, last := tb.lv.FirstUse[tn], tb.lv.LastUse[tn]
		for _, c := range tn.Consumers {
			if u := tb.sched.Index[c]; u > first && u < last {
				mid++
			}
		}
		if mid > 0 {
			victim = tn
			break
		}
	}
	if victim == nil {
		t.Fatal("no tensor with an intermediate consumer")
	}
	p := NewPlan("mutated", tb.dev)
	p.Tensors = []TensorPlan{{
		Tensor: victim, Opt: Swap,
		EvictAt:    tb.lv.FirstUse[victim],
		RestoreAt:  tb.lv.LastUse[victim],
		PrefetchAt: tb.lv.LastUse[victim],
	}}
	vs := VerifyAt(p, tb.g, tb.sched, tb.lv, 0)
	requireViolation(t, vs, "restore-before-use")
	for _, v := range vs {
		if !strings.Contains(v.Detail, "eviction gap") {
			t.Errorf("want an eviction-gap detail, got %s", v)
		}
	}
}

func TestVerifyPrefetchWindowViolation(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 16})
	p, cap := planUnderPressure(t, tb)
	k, ok := firstSwap(p)
	if !ok {
		t.Fatal("pressure plan has no swap decision to mutate")
	}
	tp := p.Tensors[k]
	tp.PrefetchAt = tp.EvictAt // prefetch issued while still evicting
	p.Tensors[k] = tp
	requireViolation(t, VerifyAt(p, tb.g, tb.sched, tb.lv, cap), "restore-before-use")
}

func TestVerifySplitBalanceViolations(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 16})
	p, cap := planUnderPressure(t, tb)

	t.Run("orphan micro-restore", func(t *testing.T) {
		mut := clonePlan(p)
		k, ok := firstSwap(mut)
		if !ok {
			t.Fatal("no swap decision to mutate")
		}
		tp := mut.Tensors[k]
		tp.MicroRestore = 4 // no split consumer claims it
		mut.Tensors[k] = tp
		requireViolation(t, VerifyAt(mut, tb.g, tb.sched, tb.lv, cap), "split-balance",
			// Fraction-resident accounting shifts the curve too.
			"capacity", "recompute-chain")
	})

	if len(p.Splits) == 0 {
		t.Skip("pressure plan made no split decisions")
	}
	t.Run("degenerate p_num", func(t *testing.T) {
		mut := clonePlan(p)
		mut.Splits[0].PNum = 1
		requireViolation(t, VerifyAt(mut, tb.g, tb.sched, tb.lv, cap), "split-balance",
			"capacity")
	})
}

func TestVerifyRecomputeChainViolation(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	// Mark a graph input as recompute: it has no producer, so the chain
	// cannot bottom out.
	var input *graph.Tensor
	for _, tn := range tb.g.Tensors {
		if tn.Kind == tensor.Input && tn.Producer == nil && len(tn.Consumers) > 0 {
			input = tn
			break
		}
	}
	if input == nil {
		t.Fatal("model has no staged input tensor")
	}
	p := NewPlan("mutated", tb.dev)
	last := tb.lv.LastUse[input]
	p.Tensors = []TensorPlan{{Tensor: input, Opt: Recompute, EvictAt: 0, RestoreAt: last}}
	requireViolation(t, VerifyAt(p, tb.g, tb.sched, tb.lv, 0), "recompute-chain",
		"restore-before-use")
}

func TestVerifyPoolOffsetsViolation(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 16})
	p, cap := planUnderPressure(t, tb)
	k, ok := firstSwap(p)
	if !ok {
		t.Fatal("pressure plan has no swap decision to mutate")
	}
	tp := p.Tensors[k]
	tp.EvictAt = len(tb.sched.Ops) // residency span runs off the schedule
	p.Tensors[k] = tp
	requireViolation(t, VerifyAt(p, tb.g, tb.sched, tb.lv, cap), "pool-offsets",
		"restore-before-use", "capacity", "recompute-chain")
}

// clonePlan copies a plan shallowly but with fresh decision lists, so
// a test can mutate one decision without disturbing the original.
func clonePlan(p *Plan) *Plan {
	c := *p
	c.Tensors = slices.Clone(p.Tensors)
	c.Splits = slices.Clone(p.Splits)
	return &c
}

func TestVerifyRecomputeCycleViolation(t *testing.T) {
	// A hand-built cyclic graph (impossible from the model builders,
	// whose graphs are DAGs): a and b each claim the other as producer
	// input, and both are marked recompute. BuildSchedule would reject
	// the cycle, so the schedule and liveness are assembled by hand —
	// the verifier must refuse the chain rather than recurse forever.
	g := &graph.Graph{}
	ta := g.NewTensor("a", tensor.Shape{4, 4}, tensor.Float32, tensor.FeatureMap)
	tb := g.NewTensor("b", tensor.Shape{4, 4}, tensor.Float32, tensor.FeatureMap)
	opA := g.NewOp("makeA", graph.ReLU, graph.Forward, []*graph.Tensor{tb}, []*graph.Tensor{ta}, graph.Attrs{})
	opB := g.NewOp("makeB", graph.ReLU, graph.Forward, []*graph.Tensor{ta}, []*graph.Tensor{tb}, graph.Attrs{})
	sched := &graph.Schedule{
		Ops:   []*graph.Op{opA, opB},
		Index: map[*graph.Op]int{opA: 0, opB: 1},
	}
	lv := &graph.Liveness{
		Sched:    sched,
		FirstUse: map[*graph.Tensor]int{ta: 0, tb: 1},
		LastUse:  map[*graph.Tensor]int{ta: 1, tb: 1},
	}
	p := NewPlan("cyclic", device.TitanRTX)
	p.Tensors = []TensorPlan{
		{Tensor: ta, Opt: Recompute, EvictAt: 0, RestoreAt: 1},
		{Tensor: tb, Opt: Recompute, EvictAt: 1, RestoreAt: -1},
	}
	vs := VerifyAt(p, g, sched, lv, 0)
	requireViolation(t, vs, "recompute-chain")
	found := false
	for _, v := range vs {
		if strings.Contains(v.Detail, "cycle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a cycle detail, got %v", vs)
	}
}

// FuzzVerifyPlan drives the planner over fuzzed (model, batch, budget)
// configurations: every plan the planner emits must verify clean, and
// a deterministic plan mutation must always trip at least one
// violation. The seed corpus runs under plain `go test`.
func FuzzVerifyPlan(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(20), uint8(0))
	f.Add(uint8(1), uint8(7), uint8(5), uint8(1))
	f.Add(uint8(0), uint8(15), uint8(40), uint8(2))
	f.Add(uint8(1), uint8(11), uint8(0), uint8(3))
	// Selector 2 routes to the randomized workload generator.
	f.Add(uint8(2), uint8(42), uint8(30), uint8(0))
	f.Add(uint8(2), uint8(111), uint8(55), uint8(2))
	f.Add(uint8(5), uint8(9), uint8(12), uint8(3))
	f.Fuzz(func(t *testing.T, modelSel, batchSel, capSel, mutSel uint8) {
		var tb *testbed
		if int(modelSel)%3 == 2 {
			// Randomly generated DAG: (batchSel, capSel) seed the
			// generator so the fuzzer explores topology space too.
			tb = fuzzRandTestbed(t, uint64(batchSel)<<8|uint64(capSel))
		} else {
			zoo := []string{"vgg16", "resnet50"}
			tb = fuzzTestbed(t, zoo[int(modelSel)%2], 1+int(batchSel)%16)
		}
		// Budget between 40% and 99% of the unmanaged peak above the
		// resident floor: tight enough to force decisions, loose enough
		// to usually be feasible.
		var floor int64
		for _, tn := range tb.g.Tensors {
			if tn.Producer == nil {
				floor += tn.Bytes()
			}
		}
		capacity := floor + (tb.lv.Peak-floor)*int64(40+int(capSel)%60)/100
		opts := Options{Capacity: capacity}
		if int(modelSel)%3 == 2 {
			// Generated graphs are MiB-scale; the default 256 MiB
			// fragmentation reserve would swallow the whole budget.
			opts.FragmentationReserve = -1
		}
		plan, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts).Plan()
		if err != nil {
			t.Skip("infeasible budget")
		}
		if vs := VerifyAt(plan, tb.g, tb.sched, tb.lv, capacity); len(vs) != 0 {
			t.Fatalf("planner plan violates its own invariants: %v", vs)
		}

		mut := clonePlan(plan)
		switch mutSel % 4 {
		case 0: // collapse a swap window
			k, ok := firstSwap(mut)
			if !ok {
				t.Skip("no swap decision to mutate")
			}
			tp := mut.Tensors[k]
			tp.RestoreAt = tp.EvictAt
			mut.Tensors[k] = tp
		case 1: // prefetch outside the eviction window
			k, ok := firstSwap(mut)
			if !ok {
				t.Skip("no swap decision to mutate")
			}
			tp := mut.Tensors[k]
			tp.PrefetchAt = tp.EvictAt
			mut.Tensors[k] = tp
		case 2: // shrink the ceiling below the plan's real peak
			ms := NewMemSim(tb.g, tb.sched, tb.lv)
			_, peak, _ := ms.Curve(mut)
			capacity = peak - 1
		case 3: // orphan micro-restore
			k, ok := firstSwap(mut)
			if !ok {
				t.Skip("no swap decision to mutate")
			}
			tp := mut.Tensors[k]
			tp.MicroRestore = 7
			mut.Tensors[k] = tp
		}
		if vs := VerifyAt(mut, tb.g, tb.sched, tb.lv, capacity); len(vs) == 0 {
			t.Fatalf("mutation %d produced no violation", mutSel%4)
		}
	})
}

var (
	fuzzTestbeds = map[string]*testbed{}
	fuzzMu       sync.Mutex
)

// fuzzTestbed caches (model, batch) testbeds across fuzz iterations —
// graph building and profiling dominate otherwise.
func fuzzTestbed(t *testing.T, model string, batch int) *testbed {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	key := fmt.Sprintf("%s/%d", model, batch)
	if tb, ok := fuzzTestbeds[key]; ok {
		return tb
	}
	g, err := models.Build(model, models.Config{BatchSize: batch})
	if err != nil {
		t.Fatalf("build %s: %v", key, err)
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatalf("schedule %s: %v", key, err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	tb := &testbed{g: g, sched: sched, lv: lv, prof: profiler.New(device.TitanRTX, sched), dev: device.TitanRTX}
	fuzzTestbeds[key] = tb
	return tb
}

// fuzzRandTestbed caches testbeds for generated graphs by seed.
func fuzzRandTestbed(t *testing.T, seed uint64) *testbed {
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	key := fmt.Sprintf("rand/%d", seed)
	if tb, ok := fuzzTestbeds[key]; ok {
		return tb
	}
	g := workload.RandGraph(seed)
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatalf("schedule %s: %v", key, err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	tb := &testbed{g: g, sched: sched, lv: lv, prof: profiler.New(device.TitanRTX, sched), dev: device.TitanRTX}
	fuzzTestbeds[key] = tb
	return tb
}

func TestVerifyViolationsSortedAndStringy(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	ms := NewMemSim(tb.g, tb.sched, tb.lv)
	base := NewPlan("base", tb.dev)
	_, peak, _ := ms.Curve(base)
	vs := VerifyAt(base, tb.g, tb.sched, tb.lv, peak-1)
	if len(vs) == 0 {
		t.Fatal("expected violations")
	}
	for i := 1; i < len(vs); i++ {
		a, b := vs[i-1], vs[i]
		if a.Invariant > b.Invariant || (a.Invariant == b.Invariant && a.Subject > b.Subject) {
			t.Fatalf("violations not sorted: %v before %v", a, b)
		}
	}
	if s := vs[0].String(); !strings.Contains(s, "capacity(") {
		t.Fatalf("String() = %q, want invariant(subject): detail form", s)
	}
}

// TestVerifyMalformedLists pins the verifier's check of the decision
// lists' shape, which a plan arriving through the public API may
// break: one hand-built plan per defect — an out-of-order entry, a
// repeated ID and a nil tensor or op in either list — must trip
// exactly the named invariant, a nil entry with its position as
// subject.
func TestVerifyMalformedLists(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	clean := NewPlan("lists", tb.dev)
	for _, tn := range tb.g.Tensors {
		if tn.Kind == tensor.FeatureMap && len(tn.Consumers) >= 2 && tn.Bytes() > 1<<20 {
			clean.Tensors = append(clean.Tensors, TensorPlan{Tensor: tn, Opt: Swap})
		}
	}
	FinalizeWindows(tb.g, tb.sched, tb.lv, tb.prof, clean, nil)
	for _, op := range tb.g.Ops {
		if in, out := SplitTensors(op, tensor.DimSample); in != nil && out != nil && len(clean.Splits) < 3 {
			clean.Splits = append(clean.Splits, OpSplit{Op: op, PNum: 2, Dim: tensor.DimSample, InOpt: Reside})
		}
	}
	if len(clean.Tensors) < 3 || len(clean.Splits) < 3 {
		t.Fatalf("want 3 decisions of each kind, have %d tensors and %d splits", len(clean.Tensors), len(clean.Splits))
	}
	mustVerifyClean(t, tb, clean, 0)

	for _, tc := range []struct {
		name, invariant, subject string
		mutate                   func(p *Plan)
	}{
		{"tensors out of order", "plan-order", clean.Tensors[0].Tensor.Name, func(p *Plan) {
			p.Tensors[0], p.Tensors[1] = p.Tensors[1], p.Tensors[0]
		}},
		{"tensor repeated", "plan-order", clean.Tensors[1].Tensor.Name, func(p *Plan) {
			p.Tensors[2] = p.Tensors[1]
		}},
		{"nil tensor", "restore-before-use", "Tensors[1]", func(p *Plan) {
			p.Tensors[1].Tensor = nil
		}},
		{"splits out of order", "plan-order", clean.Splits[0].Op.Name, func(p *Plan) {
			p.Splits[0], p.Splits[1] = p.Splits[1], p.Splits[0]
		}},
		{"split repeated", "plan-order", clean.Splits[1].Op.Name, func(p *Plan) {
			p.Splits[2] = p.Splits[1]
		}},
		{"nil op", "split-balance", "Splits[2]", func(p *Plan) {
			p.Splits[2].Op = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := clonePlan(clean)
			tc.mutate(p)
			vs := VerifyAt(p, tb.g, tb.sched, tb.lv, 0)
			requireViolation(t, vs, tc.invariant)
			for _, v := range vs {
				if v.Subject != tc.subject {
					t.Errorf("violation %s: want subject %s", v, tc.subject)
				}
			}
		})
	}
}
