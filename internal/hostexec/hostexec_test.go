package hostexec

import (
	"math"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/nn"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
)

// cnn builds a small conv net with the graph builders.
func cnn(t *testing.T, batch int) (*graph.Graph, *graph.Tensor) {
	t.Helper()
	g := graph.New()
	images := g.Input("images", tensor.NewShape(batch, 1, 8, 8), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	x := g.ReLU("c1.relu", g.Conv2D("c1", images, 4, 3, 1, 1))
	x = g.MaxPool("p1", x, 2, 2, 0)
	flat := g.Reshape("flat", x, tensor.NewShape(batch, 4*4*4))
	h := g.ReLU("fc1.relu", g.Dense("fc1", flat, 16))
	logits := g.Dense("fc2", h, 3)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(graph.Momentum); err != nil {
		t.Fatal(err)
	}
	return g, images
}

// batchOf makes a deterministic synthetic batch.
func batchOf(images *graph.Tensor, seed uint64) (*nn.Buffer, []int) {
	r := nn.NewRNG(seed)
	img := nn.NewBuffer(images.Shape)
	nn.FillUniform(img, 1, r)
	labels := make([]int, images.Shape[0])
	for i := range labels {
		labels[i] = r.Intn(3)
	}
	return img, labels
}

// trainLosses runs n steps under a plan and returns the losses.
func trainLosses(t *testing.T, g *graph.Graph, images *graph.Tensor, plan *core.Plan, budget int64, steps int) ([]float64, *Executor) {
	t.Helper()
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, sched, plan, 99)
	e.Capacity = budget
	var losses []float64
	for s := 0; s < steps; s++ {
		img, labels := batchOf(images, uint64(1000+s))
		l, err := e.Step(map[*graph.Tensor]*nn.Buffer{images: img}, labels)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		losses = append(losses, l)
	}
	return losses, e
}

func TestTrainingConverges(t *testing.T) {
	g, images := cnn(t, 16)
	losses, _ := trainLosses(t, g, images, core.NewPlan("base", device.TitanRTX), 0, 12)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
}

// The repository's central correctness claim: training under ANY
// memory plan produces exactly the same losses as unconstrained
// training (splitting may reassociate weight-gradient sums, so the
// split plan gets a tolerance; swap and recompute must be exact).
func TestPlanNumericParity(t *testing.T) {
	g, images := cnn(t, 16)
	sched, _ := graph.BuildSchedule(g)
	lv := graph.AnalyzeLiveness(g, sched)
	prof := profiler.New(device.TitanRTX, sched)

	ref, _ := trainLosses(t, g, images, core.NewPlan("base", device.TitanRTX), 0, 6)

	// Swap-everything plan: bit-exact.
	swapAll := core.NewPlan("swap-all", device.TitanRTX)
	for _, x := range g.Tensors {
		if x.Kind == tensor.FeatureMap {
			swapAll.Tensors = append(swapAll.Tensors, core.TensorPlan{Tensor: x, Opt: core.Swap})
		}
	}
	core.FinalizeWindows(g, sched, lv, prof, swapAll, nil)
	got, e := trainLosses(t, g, images, swapAll, 0, 6)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("swap plan diverges at step %d: %g vs %g", i, got[i], ref[i])
		}
	}
	if e.Swaps == 0 {
		t.Fatal("swap plan performed no swaps")
	}

	// Recompute-everything-possible plan: bit-exact.
	rc := core.NewPlan("recompute", device.TitanRTX)
	for _, x := range g.Tensors {
		if x.Kind == tensor.FeatureMap && x.Producer != nil {
			rc.Tensors = append(rc.Tensors, core.TensorPlan{Tensor: x, Opt: core.Recompute})
		}
	}
	core.FinalizeWindows(g, sched, lv, prof, rc, nil)
	got, e = trainLosses(t, g, images, rc, 0, 6)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("recompute plan diverges at step %d: %g vs %g", i, got[i], ref[i])
		}
	}
	if e.Recomputes == 0 {
		t.Fatal("recompute plan regenerated nothing")
	}
}

func TestSplitPlanNumericParity(t *testing.T) {
	g, images := cnn(t, 16)
	ref, _ := trainLosses(t, g, images, core.NewPlan("base", device.TitanRTX), 0, 6)

	split := core.NewPlan("split", device.TitanRTX)
	for _, op := range g.Ops {
		if in, out := core.SplitTensors(op, tensor.DimSample); in != nil && out != nil {
			if op.Kind == graph.CrossEntropy || (op.FwdOp != nil && op.FwdOp.Kind == graph.CrossEntropy) {
				continue
			}
			split.Splits = append(split.Splits, core.OpSplit{Op: op, PNum: 4, Dim: tensor.DimSample, InOpt: core.Reside})
		}
	}
	if len(split.Splits) == 0 {
		t.Fatal("nothing splittable")
	}
	got, _ := trainLosses(t, g, images, split, 0, 6)
	for i := range ref {
		if math.Abs(got[i]-ref[i]) > 1e-4 {
			t.Fatalf("split plan diverges at step %d: %g vs %g", i, got[i], ref[i])
		}
	}
}

func TestPlannedRunRespectsBudget(t *testing.T) {
	g, images := cnn(t, 16)
	sched, _ := graph.BuildSchedule(g)
	lv := graph.AnalyzeLiveness(g, sched)
	prof := profiler.New(device.TitanRTX, sched)

	// Measure the unconstrained peak, then find the planner's
	// feasibility frontier for this graph by binary search.
	_, free := trainLosses(t, g, images, core.NewPlan("base", device.TitanRTX), 0, 2)
	lo, hi := lv.Resident, lv.Peak
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if _, err := core.NewPlanner(g, sched, lv, prof, device.TitanRTX, core.Options{
			Capacity: mid, FragmentationReserve: -1,
		}).Plan(); err != nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	plan, err := core.NewPlanner(g, sched, lv, prof, device.TitanRTX, core.Options{
		Capacity: hi, FragmentationReserve: -1,
	}).Plan()
	if err != nil {
		t.Fatalf("plan at frontier %d: %v", hi, err)
	}
	// Execute with real values under a budget a little above the
	// frontier (the analytic model does not itemize every transient).
	budget := hi + hi/5
	_, tight := trainLosses(t, g, images, plan, budget, 4)
	if tight.PeakBytes > budget {
		t.Fatalf("peak %d exceeds budget %d", tight.PeakBytes, budget)
	}
	if tight.PeakBytes >= free.PeakBytes {
		t.Fatal("plan did not reduce the real footprint")
	}
}

func TestBudgetViolationDetected(t *testing.T) {
	g, images := cnn(t, 16)
	sched, _ := graph.BuildSchedule(g)
	e := New(g, sched, core.NewPlan("base", device.TitanRTX), 1)
	e.Capacity = 1024 // absurd
	img, labels := batchOf(images, 5)
	if _, err := e.Step(map[*graph.Tensor]*nn.Buffer{images: img}, labels); err == nil {
		t.Fatal("expected budget violation")
	}
}

// mlpLN builds a transformer-style block (dense → layernorm → gelu →
// dense) to exercise the normalization kernels end-to-end.
func mlpLN(t *testing.T, batch int) (*graph.Graph, *graph.Tensor) {
	t.Helper()
	g := graph.New()
	x := g.Input("x", tensor.NewShape(batch, 1, 4, 4), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	flat := g.Reshape("flat", x, tensor.NewShape(batch, 16))
	h := g.Dense("fc1", flat, 24)
	h = g.LayerNorm("ln1", h)
	h = g.GELU("act", h)
	logits := g.Dense("fc2", h, 3)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(graph.Momentum); err != nil {
		t.Fatal(err)
	}
	return g, x
}

func TestLayerNormModelParity(t *testing.T) {
	g, x := mlpLN(t, 12)
	sched, _ := graph.BuildSchedule(g)
	lv := graph.AnalyzeLiveness(g, sched)
	prof := profiler.New(device.TitanRTX, sched)

	ref, _ := trainLosses(t, g, x, core.NewPlan("base", device.TitanRTX), 0, 6)
	if ref[5] >= ref[0] {
		t.Fatalf("layernorm model does not learn: %v", ref)
	}

	// Evict every feature map via recompute and compare bit-for-bit.
	rc := core.NewPlan("recompute", device.TitanRTX)
	for _, tt := range g.Tensors {
		if tt.Kind == tensor.FeatureMap && tt.Producer != nil {
			rc.Tensors = append(rc.Tensors, core.TensorPlan{Tensor: tt, Opt: core.Recompute})
		}
	}
	core.FinalizeWindows(g, sched, lv, prof, rc, nil)
	got, e := trainLosses(t, g, x, rc, 0, 6)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("step %d: %g vs %g", i, got[i], ref[i])
		}
	}
	if e.Recomputes == 0 {
		t.Fatal("no recomputes happened")
	}
}
