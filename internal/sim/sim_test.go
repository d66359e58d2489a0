package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
)

type bed struct {
	g     *graph.Graph
	sched *graph.Schedule
	lv    *graph.Liveness
	prof  *profiler.Profile
	dev   device.Device
}

func mkbed(t *testing.T, model string, cfg models.Config) *bed {
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
	return &bed{g, sched, lv, profiler.New(device.TitanRTX, sched), device.TitanRTX}
}

func (b *bed) baseline(t *testing.T, name string) *core.Plan {
	t.Helper()
	p, err := baselines.Registry[name](baselines.Inputs{G: b.g, Sched: b.sched, Lv: b.lv, Prof: b.prof, Dev: b.dev})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (b *bed) run(t *testing.T, plan *core.Plan, opts Options) Result {
	t.Helper()
	r, err := New(b.g, b.sched, b.lv, plan, b.dev, opts).Run()
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return r
}

func TestBaseRunMatchesProfile(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 16})
	r := b.run(t, b.baseline(t, "base"), Options{})
	if math.Abs(r.Time-b.prof.Total()) > 1e-9 {
		t.Fatalf("base time %g != profile %g", r.Time, b.prof.Total())
	}
	if r.SwapOutBytes != 0 || r.SwapInBytes != 0 || r.RecomputedOps != 0 {
		t.Fatal("base must not move memory")
	}
	if r.PeakBytes <= 0 {
		t.Fatal("no peak recorded")
	}
	if r.PCIeUtilization != 0 {
		t.Fatal("base must not use PCIe")
	}
}

func TestBaseOOMsOverCapacity(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 16})
	_, err := New(b.g, b.sched, b.lv, b.baseline(t, "base"), b.dev,
		Options{Capacity: b.lv.Peak / 2}).Run()
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestPeakNeverExceedsCapacity(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	for _, pol := range []string{"vdnn-all", "checkpoints", "superneurons"} {
		plan := b.baseline(t, pol)
		r, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{}).Run()
		if err != nil {
			continue
		}
		if r.PeakBytes > b.dev.MemBytes {
			t.Fatalf("%s peak %d exceeds device capacity", pol, r.PeakBytes)
		}
	}
}

func TestSwapVolumesBalance(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	r := b.run(t, b.baseline(t, "vdnn-all"), Options{})
	if r.SwapOutBytes == 0 {
		t.Fatal("vdnn-all must swap")
	}
	// Everything swapped out for a backward use comes back; planned
	// input tensors additionally stage in from the host without a
	// prior swap-out.
	var staged int64
	for _, in := range b.g.Inputs {
		staged += in.Bytes()
	}
	if r.SwapInBytes == 0 || r.SwapInBytes > r.SwapOutBytes+staged {
		t.Fatalf("swap volumes out=%d in=%d staged=%d implausible", r.SwapOutBytes, r.SwapInBytes, staged)
	}
	if r.D2HBusy <= 0 || r.H2DBusy <= 0 || r.PCIeUtilization <= 0 {
		t.Fatal("PCIe busy times not recorded")
	}
}

func TestCheckpointsRecomputeCosts(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	base := b.run(t, b.baseline(t, "base"), Options{})
	ckpt := b.run(t, b.baseline(t, "checkpoints"), Options{})
	if ckpt.RecomputedOps == 0 {
		t.Fatal("checkpoints must recompute")
	}
	if ckpt.Time <= base.Time {
		t.Fatal("recompute must cost time")
	}
	if ckpt.PeakBytes >= base.PeakBytes {
		t.Fatal("recompute must save memory")
	}
	if ckpt.RecomputeTime <= 0 {
		t.Fatal("recompute time not recorded")
	}
}

func TestRecomputeStrategies(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 48})
	plan := b.baseline(t, "checkpoints")
	mc := b.run(t, plan, Options{Recompute: MemoryCentric})
	sc := b.run(t, plan, Options{Recompute: SpeedCentric})
	// Speed-centric re-executes no chain twice: fewer recomputed ops,
	// more memory.
	if sc.RecomputedOps > mc.RecomputedOps {
		t.Fatalf("speed-centric recomputed %d ops, memory-centric %d", sc.RecomputedOps, mc.RecomputedOps)
	}
	if sc.PeakBytes < mc.PeakBytes {
		t.Fatal("speed-centric should not use less memory")
	}
	lru := b.run(t, plan, Options{Recompute: LRURecompute})
	if lru.RecomputedOps > mc.RecomputedOps {
		t.Fatal("LRU should not recompute more than memory-centric")
	}
}

func TestTSplitPlanRunsAndIsFast(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 128})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	r := b.run(t, plan, Options{Recompute: LRURecompute})
	vdnn := b.run(t, b.baseline(t, "vdnn-all"), Options{})
	if r.Time >= vdnn.Time {
		t.Fatalf("tsplit (%.3fs) should beat vdnn-all (%.3fs) at this scale", r.Time, vdnn.Time)
	}
	if r.PeakBytes > b.dev.MemBytes {
		t.Fatal("over capacity")
	}
}

func TestZeroOffloadMovesOptimizerOffDevice(t *testing.T) {
	b := mkbed(t, "resnet50", models.Config{BatchSize: 16, Optimizer: graph.Adam})
	base := b.run(t, b.baseline(t, "base"), Options{})
	zo := b.run(t, b.baseline(t, "zero-offload"), Options{})
	if zo.PeakBytes >= base.PeakBytes {
		t.Fatal("zero-offload must reduce the resident footprint")
	}
	if zo.SwapOutBytes == 0 {
		t.Fatal("zero-offload must stream gradients out")
	}
}

func TestFairScaleShardsParams(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 16, Optimizer: graph.Adam})
	fs := b.run(t, b.baseline(t, "fairscale-offload"), Options{})
	base := b.run(t, b.baseline(t, "base"), Options{})
	if fs.PeakBytes >= base.PeakBytes {
		t.Fatal("fairscale must reduce peak")
	}
	if fs.Time <= base.Time {
		t.Fatal("fairscale staging must cost time")
	}
}

func TestTimelineCollection(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 16})
	r := b.run(t, b.baseline(t, "base"), Options{CollectTimeline: true})
	if len(r.Timeline) != len(b.sched.Ops) {
		t.Fatalf("timeline has %d points for %d ops", len(r.Timeline), len(b.sched.Ops))
	}
	last := 0.0
	for _, p := range r.Timeline {
		if p.End < p.Start || p.Start < last {
			t.Fatalf("timeline not monotone at op %d", p.OpIndex)
		}
		last = p.Start
	}
}

func TestThroughputHelper(t *testing.T) {
	r := Result{Time: 2}
	if r.Throughput(100) != 50 {
		t.Fatal("throughput math wrong")
	}
	if (Result{}).Throughput(10) != 0 {
		t.Fatal("zero-time throughput must be 0")
	}
}

func TestSplitExecutionReducesPeak(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	// A plan with splits only gets exercised under tight capacity.
	cap := b.lv.Resident + b.lv.Resident/2 + (3 << 30)
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev,
		core.Options{Capacity: cap, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Skip("planner cannot reach this capacity:", err)
	}
	if len(plan.Splits) == 0 {
		t.Skip("no splits planned")
	}
	r, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute}).Run()
	if err != nil {
		t.Fatalf("split plan does not execute: %v", err)
	}
	base := b.run(t, b.baseline(t, "base"), Options{})
	if r.PeakBytes >= base.PeakBytes {
		t.Fatal("split execution did not reduce the peak")
	}
}

func TestCompactionAccounting(t *testing.T) {
	b := mkbed(t, "transformer", models.Config{BatchSize: 200})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Skip("plan failed:", err)
	}
	r, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute}).Run()
	if err != nil {
		t.Skip("sim failed:", err)
	}
	if r.Compactions > 0 && r.MovedBytes == 0 {
		t.Fatal("compactions recorded without moved bytes")
	}
}

// TestRegenerateFailureError evicts a producer-less graph input as
// Recompute, so its next use must regenerate a chain that cannot
// exist. Run() reports core's quoted chain error, on a fresh simulator
// and on pooled ones whose walker state carries over between runs.
func TestRegenerateFailureError(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 16})
	var x *graph.Tensor
	var uses []int
	for _, tt := range b.g.Tensors {
		if tt.Kind != tensor.Input || tt.Producer != nil || len(tt.Consumers) < 2 {
			continue
		}
		x = tt
		for _, c := range tt.Consumers {
			uses = append(uses, b.sched.Index[c])
		}
		break
	}
	if x == nil {
		t.Fatal("vgg16 has no graph input with two consumers")
	}
	slices.Sort(uses)
	if uses[0] == uses[len(uses)-1] {
		t.Fatalf("%s has a single use position %d", x.Name, uses[0])
	}
	plan := core.NewPlan("recompute-input", b.dev)
	plan.Tensors = []core.TensorPlan{{Tensor: x, Opt: core.Recompute, EvictAt: uses[0], RestoreAt: uses[1]}}
	want := fmt.Sprintf("sim: op %d %s: regenerating %s: core: recompute source %s has no producer and is not available",
		uses[1], b.sched.Ops[uses[1]], x.Name, x.Name)
	check := func(label string, s *Simulator) {
		t.Helper()
		if _, err := s.Run(); err == nil || err.Error() != want {
			t.Fatalf("%s Run() error = %v, want %q", label, err, want)
		}
	}
	check("fresh", New(b.g, b.sched, b.lv, plan, b.dev, Options{}))
	pool := NewSimPool()
	for i := 0; i < 3; i++ {
		s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute})
		check(fmt.Sprintf("pooled #%d", i), s)
		pool.Put(s)
	}
}

// TestRegenerateReenters pins the re-entrant regeneration path: while
// the simulator replays one chain, memory pressure drops a source a
// later op of that chain reads, so ensureInput regenerates the source
// through a nested, longer chain; the outer chain must still run to
// its target. Every tensor is one unit (1 MiB) and the capacity is 9.5
// units, so allocations never fragment.
//
//	op     schedule                  effect
//	 0-2   a0, a1, y                 x a1 y resident (a0 freed)
//	 3-8   c1 .. c5, w               a chain from y to w (c* freed)
//	 9     sink(w)                   w dropped (Recompute)
//	10-12  p = f(x), q = f(p, y), t  p, q and y freed
//	13     sink(t)                   t dropped (Recompute)
//	14     sink(w)                   regenerates [y c1 .. c5 w]: the
//	                                 LRU cache is y, c1 .. c5
//	15     sink(a1)                  a1 freed
//	16-17  h1, h2                    device full: x y c1..c5 h1 h2
//	18     sink(t)                   regenerates [p q t]: allocating p
//	                                 drops y (the LRU head), so q first
//	                                 regenerates y through [a0 a1 y]
//	19     sink(h1, h2)
func TestRegenerateReenters(t *testing.T) {
	const unit = 1 << 20
	g := graph.New()
	x := g.Input("x", tensor.NewShape(unit/4), tensor.Float32)
	sinks := 0
	op := func(out string, ins ...*graph.Tensor) *graph.Tensor {
		shape := tensor.NewShape(unit / 4)
		if out == "" {
			sinks++
			out, shape = fmt.Sprintf("sink%d", sinks), tensor.NewShape(1)
		}
		o := g.NewTensor(out, shape, tensor.Float32, tensor.FeatureMap)
		g.NewOp("f"+out, graph.ReLU, graph.Forward, ins, []*graph.Tensor{o}, graph.Attrs{})
		return o
	}
	a1 := op("a1", op("a0", x))
	y := op("y", a1)
	c := y
	for i := 1; i <= 5; i++ {
		c = op(fmt.Sprintf("c%d", i), c)
	}
	w := op("w", c)
	op("", w)
	tt := op("t", op("q", op("p", x), y))
	op("", tt)
	op("", w)
	op("", a1)
	h1, h2 := op("h1", x), op("h2", x)
	op("", tt)
	op("", h1, h2)
	sched := &graph.Schedule{Ops: g.Ops, Index: map[*graph.Op]int{}}
	for i, o := range g.Ops {
		sched.Index[o] = i
	}
	lv := graph.AnalyzeLiveness(g, sched)
	plan := core.NewPlan("reenter", device.TitanRTX)
	plan.Tensors = []core.TensorPlan{ // w precedes t in ID order
		{Tensor: w, Opt: core.Recompute, EvictAt: 9, RestoreAt: 14},
		{Tensor: tt, Opt: core.Recompute, EvictAt: 13, RestoreAt: 18},
	}
	opts := Options{Recompute: LRURecompute, Capacity: 9*unit + unit/2}
	want, err := New(g, sched, lv, plan, device.TitanRTX, opts).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// [y c1 .. c5 w] + [p a0 a1 y q t]
	if want.RecomputedOps != 13 {
		t.Fatalf("RecomputedOps = %d, want 13", want.RecomputedOps)
	}
	pool := NewSimPool()
	for i := 0; i < 3; i++ {
		s := pool.Get(g, sched, lv, plan, device.TitanRTX, opts)
		got, err := s.Run()
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pooled run %d = %+v, %v; want %+v", i, got, err, want)
		}
		pool.Put(s)
	}
}
