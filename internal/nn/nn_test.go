package nn

import (
	"math"
	"testing"
	"testing/quick"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b *Buffer) float64 {
	if !a.Shape.Equal(b.Shape) {
		return math.Inf(1)
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

func randBuf(shape tensor.Shape, seed uint64) *Buffer {
	b := NewBuffer(shape)
	r := NewRNG(seed)
	FillUniform(b, 1, r)
	return b
}

func TestMatMulKnownValues(t *testing.T) {
	x := NewBufferFrom(tensor.NewShape(2, 2), []float32{1, 2, 3, 4})
	w := NewBufferFrom(tensor.NewShape(2, 2), []float32{5, 6, 7, 8})
	bias := NewBufferFrom(tensor.NewShape(2), []float32{1, -1})
	y := MatMul(x, w, bias)
	want := []float32{1*5 + 2*7 + 1, 1*6 + 2*8 - 1, 3*5 + 4*7 + 1, 3*6 + 4*8 - 1}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("y[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
}

// numericGrad checks an analytic gradient against finite differences.
func numericGrad(t *testing.T, f func(*Buffer) float64, x *Buffer, analytic *Buffer, tol float64) {
	t.Helper()
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := f(x)
		x.Data[i] = orig - eps
		down := f(x)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(analytic.Data[i])) > tol {
			t.Fatalf("grad[%d]: numeric %g vs analytic %g", i, num, analytic.Data[i])
		}
	}
}

func TestMatMulGradNumeric(t *testing.T) {
	x := randBuf(tensor.NewShape(3, 4), 1)
	w := randBuf(tensor.NewShape(4, 2), 2)
	dy := randBuf(tensor.NewShape(3, 2), 3)
	dx, dw, _ := MatMulGrad(x, w, dy)
	loss := func(xx *Buffer) float64 {
		y := MatMul(xx, w, nil)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	numericGrad(t, loss, x, dx, 1e-2)
	lossW := func(ww *Buffer) float64 {
		y := MatMul(x, ww, nil)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	numericGrad(t, lossW, w, dw, 1e-2)
}

func TestConv2DGradNumeric(t *testing.T) {
	at := graph.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := randBuf(tensor.NewShape(1, 2, 4, 4), 4)
	w := randBuf(tensor.NewShape(2, 2, 3, 3), 5)
	dy := randBuf(tensor.NewShape(1, 2, 4, 4), 6)
	dx, dw, _ := Conv2DGrad(x, w, dy, at)
	loss := func(xx *Buffer) float64 {
		y := Conv2D(xx, w, nil, at)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	numericGrad(t, loss, x, dx, 2e-2)
	lossW := func(ww *Buffer) float64 {
		y := Conv2D(x, ww, nil, at)
		var s float64
		for i := range y.Data {
			s += float64(y.Data[i] * dy.Data[i])
		}
		return s
	}
	numericGrad(t, lossW, w, dw, 2e-2)
}

func TestReLUAndGrad(t *testing.T) {
	x := NewBufferFrom(tensor.NewShape(4), []float32{-1, 0, 2, -3})
	y := ReLU(x)
	if y.Data[0] != 0 || y.Data[2] != 2 {
		t.Fatal("relu wrong")
	}
	dy := NewBufferFrom(tensor.NewShape(4), []float32{1, 1, 1, 1})
	dx := ReLUGrad(x, dy)
	if dx.Data[0] != 0 || dx.Data[2] != 1 {
		t.Fatal("relu grad wrong")
	}
}

func TestMaxPoolAndGrad(t *testing.T) {
	at := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	x := NewBufferFrom(tensor.NewShape(1, 1, 2, 2), []float32{1, 5, 3, 2})
	y := MaxPool(x, at)
	if y.Data[0] != 5 {
		t.Fatalf("maxpool = %g", y.Data[0])
	}
	dy := NewBufferFrom(tensor.NewShape(1, 1, 1, 1), []float32{7})
	dx := MaxPoolGrad(x, y, dy, at)
	want := []float32{0, 7, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx = %v", dx.Data)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := randBuf(tensor.NewShape(5, 7), 8)
	y := Softmax(x)
	for r := 0; r < 5; r++ {
		var s float64
		for c := 0; c < 7; c++ {
			s += float64(y.Data[r*7+c])
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %g", r, s)
		}
	}
}

func TestCrossEntropyGradNumeric(t *testing.T) {
	logits := randBuf(tensor.NewShape(3, 4), 9)
	labels := []int{1, 3, 0}
	d := CrossEntropyGrad(logits, labels)
	loss := func(l *Buffer) float64 { return CrossEntropy(l, labels) }
	numericGrad(t, loss, logits, d, 1e-3)
}

func TestSGDStepWithMomentum(t *testing.T) {
	w := NewBufferFrom(tensor.NewShape(2), []float32{1, 1})
	dw := NewBufferFrom(tensor.NewShape(2), []float32{1, 2})
	v := NewBuffer(tensor.NewShape(2))
	SGDStep(w, dw, v, 0.1, 0.9)
	if w.Data[0] != 0.9 || w.Data[1] != 0.8 {
		t.Fatalf("w = %v", w.Data)
	}
	SGDStep(w, dw, v, 0.1, 0.9)
	// v = 0.9*1 + 1 = 1.9 -> w = 0.9 - 0.19
	if math.Abs(float64(w.Data[0])-0.71) > 1e-6 {
		t.Fatalf("momentum step wrong: %v", w.Data)
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	b := randBuf(tensor.NewShape(7, 3), 10)
	parts, err := SplitAxis0(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err := MergeAxis0(parts)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(b, back) != 0 {
		t.Fatal("round trip not exact")
	}
}

// The central sTensor property: computing on micro-tensors and merging
// equals the unsplit computation, exactly, for batch-parallel
// operators — and weight gradients sum-merge across micro-batches.
func TestSplitMatMulEqualsWhole(t *testing.T) {
	x := randBuf(tensor.NewShape(8, 5), 11)
	w := randBuf(tensor.NewShape(5, 3), 12)
	bias := randBuf(tensor.NewShape(3), 13)
	whole := MatMul(x, w, bias)
	for _, pn := range []int{2, 4, 8} {
		parts, _ := SplitAxis0(x, pn)
		var outs []*Buffer
		for _, p := range parts {
			outs = append(outs, MatMul(p, w, bias))
		}
		merged, _ := MergeAxis0(outs)
		if maxAbsDiff(whole, merged) != 0 {
			t.Fatalf("p=%d split matmul differs", pn)
		}
	}
}

func TestSplitConvEqualsWhole(t *testing.T) {
	at := graph.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := randBuf(tensor.NewShape(6, 2, 5, 5), 14)
	w := randBuf(tensor.NewShape(3, 2, 3, 3), 15)
	whole := Conv2D(x, w, nil, at)
	parts, _ := SplitAxis0(x, 3)
	var outs []*Buffer
	for _, p := range parts {
		outs = append(outs, Conv2D(p, w, nil, at))
	}
	merged, _ := MergeAxis0(outs)
	if maxAbsDiff(whole, merged) != 0 {
		t.Fatal("split conv differs")
	}
}

func TestSplitWeightGradSumMerges(t *testing.T) {
	x := randBuf(tensor.NewShape(8, 5), 16)
	w := randBuf(tensor.NewShape(5, 3), 17)
	dy := randBuf(tensor.NewShape(8, 3), 18)
	_, dwWhole, dbWhole := MatMulGrad(x, w, dy)
	xp, _ := SplitAxis0(x, 4)
	dyp, _ := SplitAxis0(dy, 4)
	dwSum := NewBuffer(w.Shape)
	dbSum := NewBuffer(tensor.NewShape(3))
	for k := 0; k < 4; k++ {
		_, dw, db := MatMulGrad(xp[k], w, dyp[k])
		SumInto(dwSum, dw)
		SumInto(dbSum, db)
	}
	if maxAbsDiff(dwWhole, dwSum) > 1e-5 {
		t.Fatal("weight gradient does not sum-merge")
	}
	if maxAbsDiff(dbWhole, dbSum) > 1e-5 {
		t.Fatal("bias gradient does not sum-merge")
	}
}

// Property over random shapes and split counts.
func TestQuickSplitReLUEqualsWhole(t *testing.T) {
	f := func(rows, cols uint8, pn uint8, seed uint64) bool {
		r := int(rows%31) + 2
		c := int(cols%7) + 1
		p := int(pn)%r + 1
		x := randBuf(tensor.NewShape(r, c), seed)
		whole := ReLU(x)
		parts, err := SplitAxis0(x, p)
		if err != nil {
			return false
		}
		var outs []*Buffer
		for _, pp := range parts {
			outs = append(outs, ReLU(pp))
		}
		merged, err := MergeAxis0(outs)
		return err == nil && maxAbsDiff(whole, merged) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("rng not deterministic")
		}
	}
	if NewRNG(5).Intn(10) != NewRNG(5).Intn(10) {
		t.Fatal("Intn not deterministic")
	}
}

func TestBufferAtSet(t *testing.T) {
	b := NewBuffer(tensor.NewShape(2, 3))
	b.Set(7, 1, 2)
	if b.At(1, 2) != 7 || b.Data[5] != 7 {
		t.Fatal("indexing wrong")
	}
}
