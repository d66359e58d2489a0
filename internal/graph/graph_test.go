package graph

import (
	"strings"
	"testing"

	"tsplit/internal/tensor"
)

// liveAt reports whether t occupies device memory while op index i
// executes.
func liveAt(lv *Liveness, t *Tensor, i int) bool {
	first := lv.FirstUse[t]
	if first == -1 {
		return true
	}
	return first <= i && i <= lv.LastUse[t]
}

// tinyMLP builds input -> dense -> relu -> dense -> loss.
func tinyMLP(t *testing.T, batch int, opt Optimizer) *Graph {
	t.Helper()
	g := New()
	x := g.Input("x", tensor.NewShape(batch, 8), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	h := g.ReLU("fc1.relu", g.Dense("fc1", x, 16))
	logits := g.Dense("fc2", h, 4)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(opt); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderShapes(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(2, 3, 8, 8), tensor.Float32)
	y := g.Conv2D("c", x, 4, 3, 1, 1)
	if !y.Shape.Equal(tensor.NewShape(2, 4, 8, 8)) {
		t.Fatalf("conv out %v", y.Shape)
	}
	p := g.MaxPool("p", y, 2, 2, 0)
	if !p.Shape.Equal(tensor.NewShape(2, 4, 4, 4)) {
		t.Fatalf("pool out %v", p.Shape)
	}
	s := g.Conv2DRect("r", x, 5, 1, 7, 1, 1, 0, 3)
	if !s.Shape.Equal(tensor.NewShape(2, 5, 8, 8)) {
		t.Fatalf("rect conv out %v", s.Shape)
	}
	a := g.AvgPool("gap", p, 4, 1, 0)
	if !a.Shape.Equal(tensor.NewShape(2, 4, 1, 1)) {
		t.Fatalf("gap out %v", a.Shape)
	}
}

func TestConv2DWorkspace(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(1, 3, 8, 8), tensor.Float32)
	y := g.Conv2D("c", x, 4, 3, 1, 1)
	op := y.Producer
	want := int64(3*3*3) * int64(8*8) * 4
	if op.Workspace != want {
		t.Fatalf("workspace %d, want %d", op.Workspace, want)
	}
}

func TestProducersAndConsumers(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	for _, op := range g.Ops {
		for _, out := range op.Outputs {
			if out.Producer != op {
				t.Fatalf("%s output %s has wrong producer", op, out)
			}
		}
		for _, in := range op.Inputs {
			found := false
			for _, c := range in.Consumers {
				if c == op {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s missing from consumers of %s", op, in)
			}
		}
	}
}

func TestDifferentiateProducesParamGrads(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	for _, p := range g.Params {
		if g.GradTensor(p) == nil {
			t.Errorf("no gradient for %s", p.Name)
		}
	}
}

func TestDifferentiateWithoutLoss(t *testing.T) {
	g := New()
	g.Input("x", tensor.NewShape(1, 2), tensor.Float32)
	if err := g.Differentiate(SGD); err == nil {
		t.Fatal("expected error without a loss")
	}
}

// TestCollapsedWindowIsAnError: a window larger than its padded input
// is recorded as the graph's error (the first one wins), and
// Differentiate refuses the graph.
func TestCollapsedWindowIsAnError(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(1, 3, 1, 1), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(1), tensor.Int32)
	y := g.MaxPool("p", g.Conv2D("c", x, 4, 3, 2, 0), 3, 2, 0)
	if g.Err() == nil || !strings.Contains(g.Err().Error(), "window op c collapses extent 1 (k=3 s=2 p=0)") {
		t.Fatalf("Err() = %v, want the first collapse (op c)", g.Err())
	}
	if !y.Shape.Equal(tensor.NewShape(1, 4, 1, 1)) {
		t.Fatalf("collapsed extents build as 1: got %v", y.Shape)
	}
	g.CrossEntropyLoss("loss", g.Dense("fc", g.Reshape("flat", y, tensor.NewShape(1, 4)), 2), labels)
	if err := g.Differentiate(SGD); err != g.Err() {
		t.Fatalf("Differentiate = %v, want the build error", err)
	}
}

// TestWindowLargerThanPaddedInput: a 3×3 window of stride 2 and no
// padding over a 2×2 input is larger than its input by less than the
// stride, which truncating division would build as extent 1; it
// collapses instead, and a window that fits exactly still builds.
func TestWindowLargerThanPaddedInput(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(1, 3, 2, 2), tensor.Float32)
	g.Conv2D("c", x, 4, 3, 2, 0)
	if g.Err() == nil || !strings.Contains(g.Err().Error(), "window op c collapses extent 2 (k=3 s=2 p=0)") {
		t.Fatalf("Err() = %v, want op c's collapse", g.Err())
	}
	g = New()
	x = g.Input("x", tensor.NewShape(1, 3, 3, 3), tensor.Float32)
	if y := g.Conv2D("c", x, 4, 3, 2, 0); g.Err() != nil || !y.Shape.Equal(tensor.NewShape(1, 4, 1, 1)) {
		t.Fatalf("3×3 window over 3×3 input: shape %v, err %v", y.Shape, g.Err())
	}
}

func TestOptimizerStates(t *testing.T) {
	for _, tc := range []struct {
		opt  Optimizer
		want int
	}{{SGD, 0}, {Momentum, 1}, {Adam, 2}} {
		g := tinyMLP(t, 2, tc.opt)
		if got := len(g.OptStates); got != tc.want*len(g.Params) {
			t.Errorf("%v: %d opt states, want %d", tc.opt, got, tc.want*len(g.Params))
		}
	}
}

func TestGradAccumulationForSharedTensor(t *testing.T) {
	// x feeds two branches that are added: its gradient must be
	// accumulated through an inserted Add op.
	g := New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(2), tensor.Int32)
	a := g.Dense("a", x, 4)
	b := g.ReLU("r", a)
	sum := g.Add("sum", a, b) // a consumed twice
	g.CrossEntropyLoss("loss", sum, labels)
	if err := g.Differentiate(SGD); err != nil {
		t.Fatal(err)
	}
	accFound := false
	for _, op := range g.Ops {
		if op.Kind == Add && op.Phase == Backward {
			accFound = true
		}
	}
	if !accFound {
		t.Fatal("no gradient-accumulation Add inserted")
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	g := tinyMLP(t, 4, Momentum)
	s, err := BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if p := in.Producer; p != nil && s.Index[p] >= s.Index[op] {
				t.Fatalf("%s before its producer %s", op, p)
			}
		}
	}
}

func TestScheduleControlDeps(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	a := g.ReLU("a", x)
	b := g.ReLU("b", x)
	// Force b after a via control edge even though data allows any order.
	b.Producer.ControlDeps = append(b.Producer.ControlDeps, a.Producer)
	s, err := BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Index[a.Producer] >= s.Index[b.Producer] {
		t.Fatal("control dependency not honored")
	}
}

func TestScheduleDetectsCycle(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(2, 4), tensor.Float32)
	a := g.ReLU("a", x)
	b := g.ReLU("b", a)
	// Introduce a control cycle a -> b -> a.
	a.Producer.ControlDeps = append(a.Producer.ControlDeps, b.Producer)
	if _, err := BuildSchedule(g); err == nil {
		t.Fatal("cycle must fail scheduling")
	}
}

func TestLivenessBasics(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	s, _ := BuildSchedule(g)
	lv := AnalyzeLiveness(g, s)
	// Parameters are resident for the whole run.
	for _, p := range g.Params {
		if lv.FirstUse[p] != -1 {
			t.Fatalf("param %s not resident", p.Name)
		}
		if !liveAt(lv, p, 0) || !liveAt(lv, p, len(s.Ops)-1) {
			t.Fatalf("param %s liveness wrong", p.Name)
		}
	}
	// The loss dies at its last consumer.
	if lv.Peak <= lv.Resident {
		t.Fatal("peak must exceed the resident footprint")
	}
	// Memory curve is consistent with liveAt.
	for i := range s.Ops {
		var sum int64
		for _, tt := range g.Tensors {
			if liveAt(lv, tt, i) {
				sum += tt.Bytes()
			}
		}
		if sum+s.Ops[i].Workspace != lv.MemAt[i] {
			t.Fatalf("MemAt[%d] = %d, recomputed %d", i, lv.MemAt[i], sum+s.Ops[i].Workspace)
		}
	}
}

func TestLivenessActivationSpansToBackward(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	s, _ := BuildSchedule(g)
	lv := AnalyzeLiveness(g, s)
	// fc1's input (x) is saved for the backward matmul: its last use
	// must be in the backward phase.
	var relu *Tensor
	for _, tt := range g.Tensors {
		if tt.Name == "fc1.relu.y" {
			relu = tt
		}
	}
	if relu == nil {
		t.Fatal("fc1.relu.y not found")
	}
	if s.Ops[lv.LastUse[relu]].Phase != Backward {
		t.Fatal("activation should live into the backward pass")
	}
}

func TestStats(t *testing.T) {
	g := tinyMLP(t, 4, SGD)
	st := g.Stats()
	if st.Ops != len(g.Ops) || st.Tensors != len(g.Tensors) || st.Params != len(g.Params) {
		t.Fatalf("stats %+v inconsistent", st)
	}
	if st.ParamBytes <= 0 || st.FeatureBytes <= 0 || st.LargestTensor <= 0 {
		t.Fatalf("stats %+v has empty fields", st)
	}
}

func TestDoubleProducerPanics(t *testing.T) {
	g := New()
	x := g.Input("x", tensor.NewShape(1, 2), tensor.Float32)
	y := g.ReLU("r", x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double producer")
		}
	}()
	g.NewOp("evil", ReLU, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{})
}
