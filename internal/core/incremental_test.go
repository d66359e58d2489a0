package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/tensor"
)

// randomEntry returns a random tensor decision of plan, which the
// callers' check keeps in step with their draft.
func randomEntry(rng *rand.Rand, plan *Plan) (TensorPlan, bool) {
	if len(plan.Tensors) == 0 {
		return TensorPlan{}, false
	}
	return plan.Tensors[rng.Intn(len(plan.Tensors))], true
}

// uses returns the schedule indices of t's consumers, ascending.
func uses(t *graph.Tensor, sched *graph.Schedule) []int {
	return appendUses(make([]int, 0, len(t.Consumers)), t, sched)
}

// TestIncrementalCurveMatchesFullRebuild drives a memCurve through a
// long random sequence of eviction, split, and chain-estimate
// decisions and checks after every step that its live delta array
// scans to exactly the curve MemSim.Curve rebuilds from scratch. All
// curve arithmetic is int64, so equality is exact, not approximate.
func TestIncrementalCurveMatchesFullRebuild(t *testing.T) {
	for _, model := range []string{"vgg16", "bert-large"} {
		tb := newTestbed(t, model, models.Config{BatchSize: 8})
		ms := NewMemSim(tb.g, tb.sched, tb.lv)
		plan := NewPlan("prop", tb.dev)
		d := newDraft(len(tb.g.Tensors), len(tb.g.Ops))
		curve := newMemCurve(ms)
		curve.reset(plan)
		rng := rand.New(rand.NewSource(42))

		check := func(step int) {
			t.Helper()
			d.writeTo(plan, nil)
			wantMem, wantPeak, _ := ms.Curve(plan)
			gotMem, gotPeak, _ := curve.scan()
			if gotPeak != wantPeak {
				t.Fatalf("%s step %d: peak %d != full rebuild %d", model, step, gotPeak, wantPeak)
			}
			for i := range wantMem {
				if gotMem[i] != wantMem[i] {
					t.Fatalf("%s step %d: mem[%d] %d != full rebuild %d", model, step, i, gotMem[i], wantMem[i])
				}
			}
		}
		check(-1)

		randomUse := func(x *graph.Tensor) (int, bool) {
			us := uses(x, tb.sched)
			if len(us) == 0 {
				return 0, false
			}
			return us[rng.Intn(len(us))], true
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0, 1: // evict a random unplanned tensor
				x := tb.g.Tensors[rng.Intn(len(tb.g.Tensors))]
				if d.tpSet[x.ID] || !x.Kind.Evictable() {
					continue
				}
				r, ok := randomUse(x)
				if !ok {
					continue
				}
				opt := Swap
				if rng.Intn(2) == 0 {
					opt = Recompute
				}
				tp := TensorPlan{Tensor: x, Opt: opt, EvictAt: tb.lv.FirstUse[x], RestoreAt: r, PrefetchAt: r}
				if opt == Swap && rng.Intn(2) == 0 && r > 0 {
					tp.PrefetchAt = rng.Intn(r)
				}
				if tp.EvictAt < 0 {
					tp.EvictAt = 0
				}
				d.putTensor(x.ID, tp)
				curve.update(x, tp)
			case 2: // perturb a chain estimate or micro-restore factor
				tp, ok := randomEntry(rng, plan)
				if !ok {
					continue
				}
				if tp.Opt == Recompute {
					tp.ChainBytes = int64(rng.Intn(1 << 20))
				} else {
					tp.MicroRestore = []int{0, 2, 4}[rng.Intn(3)]
				}
				d.putTensor(tp.Tensor.ID, tp)
				curve.update(tp.Tensor, tp)
			case 3: // split a random op
				op := tb.sched.Ops[rng.Intn(len(tb.sched.Ops))]
				dim := tensor.DimSample
				if rng.Intn(4) == 0 {
					dim = tensor.DimParam
				}
				if in, out := SplitTensors(op, dim); in == nil || out == nil {
					continue
				}
				sp := OpSplit{Op: op, PNum: []int{2, 4, 8}[rng.Intn(3)], Dim: dim, InOpt: []MemOpt{Reside, Swap, Recompute}[rng.Intn(3)]}
				d.putSplit(sp)
				curve.setAdj(tb.sched.Index[op], opFootprintAdjustment(op, sp))
			case 4: // revert a random decision
				tp, ok := randomEntry(rng, plan)
				if !ok {
					continue
				}
				d.tpSet[tp.Tensor.ID] = false
				curve.update(tp.Tensor, TensorPlan{})
			}
			check(step)
		}
	}
}

// TestBottleneckResumeMatchesFullScan pins the resumable
// first-over-capacity search against the oracle: a front-to-back scan
// of the from-scratch curve. The search resumes from
// min(prevBottleneck, minInc) and skips whole blocks via the rawMax
// upper bound; both shortcuts must be invisible — same index, same
// value, same found/not-found — through an arbitrary random decision
// walk, including edits that raise memory at positions the resume
// point has already passed (tracked by minInc) and stale rawMax
// bounds left by subtractions.
func TestBottleneckResumeMatchesFullScan(t *testing.T) {
	for _, model := range []string{"vgg16", "bert-large"} {
		for _, capPct := range []int64{55, 75} {
			tb := newTestbed(t, model, models.Config{BatchSize: 8})
			ms := NewMemSim(tb.g, tb.sched, tb.lv)
			plan := NewPlan("prop", tb.dev)
			d := newDraft(len(tb.g.Tensors), len(tb.g.Ops))
			curve := newMemCurve(ms)
			curve.reset(plan)
			_, basePeak, _ := ms.Curve(plan)
			cap := basePeak * capPct / 100
			rng := rand.New(rand.NewSource(7))

			prevBtl := 0
			check := func(step int) {
				t.Helper()
				d.writeTo(plan, nil)
				mem, _, _ := ms.Curve(plan)
				wantI, wantFound := 0, false
				var wantMem int64
				for u, v := range mem {
					if v > cap {
						wantI, wantMem, wantFound = u, v, true
						break
					}
				}
				gotI, gotMem, gotFound := curve.bottleneck(cap, prevBtl)
				if gotFound != wantFound || gotI != wantI || gotMem != wantMem {
					t.Fatalf("%s cap=%d%% step %d: bottleneck (%d, %d, %v) != full scan (%d, %d, %v)",
						model, capPct, step, gotI, gotMem, gotFound, wantI, wantMem, wantFound)
				}
				if gotFound {
					prevBtl = gotI
				}
			}
			check(-1)

			for step := 0; step < 300; step++ {
				switch rng.Intn(4) {
				case 0, 1: // evict a random unplanned tensor
					x := tb.g.Tensors[rng.Intn(len(tb.g.Tensors))]
					if d.tpSet[x.ID] || !x.Kind.Evictable() {
						continue
					}
					us := uses(x, tb.sched)
					if len(us) == 0 {
						continue
					}
					r := us[rng.Intn(len(us))]
					opt := Swap
					if rng.Intn(2) == 0 {
						opt = Recompute
					}
					tp := TensorPlan{Tensor: x, Opt: opt, EvictAt: tb.lv.FirstUse[x], RestoreAt: r, PrefetchAt: r}
					if tp.EvictAt < 0 {
						tp.EvictAt = 0
					}
					d.putTensor(x.ID, tp)
					curve.update(x, tp)
				case 2: // split a random op
					op := tb.sched.Ops[rng.Intn(len(tb.sched.Ops))]
					if in, out := SplitTensors(op, tensor.DimSample); in == nil || out == nil {
						continue
					}
					sp := OpSplit{Op: op, PNum: []int{2, 4}[rng.Intn(2)], Dim: tensor.DimSample, InOpt: Reside}
					d.putSplit(sp)
					curve.setAdj(tb.sched.Index[op], opFootprintAdjustment(op, sp))
				case 3: // revert a random decision (memory increases again)
					tp, ok := randomEntry(rng, plan)
					if !ok {
						continue
					}
					d.tpSet[tp.Tensor.ID] = false
					curve.update(tp.Tensor, TensorPlan{})
				}
				check(step)
			}
		}
	}
}

// TestOptionsWithDefaultsIdempotent guards the double-application
// hazard: withDefaults used to subtract the FragmentationReserve from
// the capacity on every call, so any path that defaulted an
// already-defaulted Options value silently shrank the budget.
func TestOptionsWithDefaultsIdempotent(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	once := Options{}.withDefaults(tb.dev)
	twice := once.withDefaults(tb.dev)
	// Func fields (Clock) are never DeepEqual; compare everything else.
	once.Clock, twice.Clock = nil, nil
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("withDefaults is not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if twice.Capacity != once.Capacity {
		t.Fatalf("capacity shrank on second defaulting: %d -> %d", once.Capacity, twice.Capacity)
	}
	// NewPlanner defaults internally; passing it a pre-defaulted
	// Options (as the experiment drivers do when they share one
	// Options value across retries) must not change the budget.
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, once)
	if pl.Opts.Capacity != once.Capacity {
		t.Fatalf("NewPlanner re-applied the fragmentation reserve: %d -> %d", once.Capacity, pl.Opts.Capacity)
	}
}

// TestDirtyChainRefreshMatchesFull plans a real workload on the
// incremental path, then re-derives every recompute chain with the
// serial full refresh and checks no estimate changes — i.e. the chain
// registry never left a committed chain unmarked after one of its
// dependencies changed.
func TestDirtyChainRefreshMatchesFull(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	capacity := tb.lv.Peak * 55 / 100
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, Options{Capacity: capacity, FragmentationReserve: -1})
	plan, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	pl.refreshChains()
	recomputes := 0
	for _, tp := range plan.Tensors {
		if tp.Opt != Recompute {
			continue
		}
		recomputes++
		if got := pl.tplans[tp.Tensor.ID].ChainBytes; got != tp.ChainBytes {
			t.Errorf("tensor %d: stale chain estimate %d, full refresh gives %d", tp.Tensor.ID, tp.ChainBytes, got)
		}
	}
	if recomputes == 0 {
		t.Skip("plan contains no recompute decisions")
	}
}
