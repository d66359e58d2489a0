package graph

import (
	"fmt"
	"sync/atomic"

	"tsplit/internal/tensor"
)

// Graph is a dataflow graph for one training iteration. Build the
// forward pass with the builder methods, then call Differentiate to
// append the backward pass and optimizer updates.
//
// Graphs are not safe for concurrent mutation; build them in one
// goroutine and treat them as immutable afterwards (the planner and the
// simulator only read), until their owner rebatches them in place
// (Template.Rebatch), which draws a new Generation.
type Graph struct {
	// Ops and Tensors are in creation order, and an ID is its index:
	// Ops[i].ID == i and Tensors[i].ID == i (NewOp, NewTensor and
	// Template.Rebatch keep it), so ID-indexed arrays are sized by
	// len(Ops) and len(Tensors).
	Ops     []*Op
	Tensors []*Tensor

	// Inputs are the staged batch tensors (data, labels).
	Inputs []*Tensor
	// Params are the trainable parameters, in creation order.
	Params []*Tensor
	// OptStates are optimizer state tensors created by Differentiate.
	OptStates []*Tensor
	// Loss is the scalar training loss once the forward pass is built.
	Loss *Tensor

	nextTensorID int
	nextOpID     int

	// gen is the graph's generation: drawn when the graph is built and
	// drawn again each time Template.Rebatch rewrites it in place.
	gen uint64

	// err is the first shape error a builder method met (see Err).
	err error
}

// generations hands out graph generations, process-wide, from 1.
var generations atomic.Uint64

// New returns an empty graph.
func New() *Graph { return &Graph{gen: generations.Add(1)} }

// Generation names the graph's current contents. A graph's pointer
// names its topology — tensors, operators and their wiring — which
// never changes once built; Template.Rebatch rewrites the sizes in
// place and draws a new generation, so a cache of anything derived
// from tensor sizes or workspaces must key on (pointer, generation).
func (g *Graph) Generation() uint64 { return g.gen }

// NewTensor creates a tensor registered with the graph. Most callers
// use the typed builders instead; the planner's rewrite uses this
// directly when materializing micro-tensors.
func (g *Graph) NewTensor(name string, shape tensor.Shape, dt tensor.DType, kind tensor.Kind) *Tensor {
	t := &Tensor{
		ID:    g.nextTensorID,
		Name:  name,
		Shape: shape.Clone(),
		DType: dt,
		Kind:  kind,
		bytes: shape.Bytes(dt),
	}
	g.nextTensorID++
	g.Tensors = append(g.Tensors, t)
	return t
}

// NewOp creates an operator registered with the graph and wires the
// producer/consumer links of its tensors.
func (g *Graph) NewOp(name string, kind OpKind, phase Phase, inputs, outputs []*Tensor, attrs Attrs) *Op {
	o := &Op{
		ID:      g.nextOpID,
		Name:    name,
		Kind:    kind,
		Phase:   phase,
		Inputs:  inputs,
		Outputs: outputs,
		Attrs:   attrs,
	}
	g.nextOpID++
	for _, in := range inputs {
		in.Consumers = append(in.Consumers, o)
	}
	for _, out := range outputs {
		if out.Producer != nil {
			panic(fmt.Sprintf("graph: tensor %s already has producer %s", out, out.Producer))
		}
		out.Producer = o
	}
	g.Ops = append(g.Ops, o)
	return o
}

// Input declares a staged batch tensor (e.g. an image batch).
func (g *Graph) Input(name string, shape tensor.Shape, dt tensor.DType) *Tensor {
	t := g.NewTensor(name, shape, dt, tensor.Input)
	g.Inputs = append(g.Inputs, t)
	return t
}

// Param declares a trainable parameter.
func (g *Graph) Param(name string, shape tensor.Shape) *Tensor {
	t := g.NewTensor(name, shape, tensor.Float32, tensor.Parameter)
	g.Params = append(g.Params, t)
	return t
}

func (g *Graph) feature(name string, shape tensor.Shape, dt tensor.DType) *Tensor {
	return g.NewTensor(name, shape, dt, tensor.FeatureMap)
}

// Err returns the first shape error met while building the graph — a
// window op (convolution or pooling) whose window does not fit its
// input — or nil. Such an op gets an output extent of 1 so building can
// run to its end; the graph is then unusable, and Differentiate
// returns the error.
func (g *Graph) Err() error { return g.err }

// convOut returns the spatial output extent for the window op name,
// recording a collapsed extent as the graph's error: a window larger
// than its padded input collapses, as frameworks reject it, though
// truncating division would give it extent 1 when the gap is below the
// stride.
func (g *Graph) convOut(name string, in, kernel, stride, pad int) int {
	if in+2*pad < kernel {
		if g.err == nil {
			g.err = fmt.Errorf("graph: window op %s collapses extent %d (k=%d s=%d p=%d)", name, in, kernel, stride, pad)
		}
		return 1
	}
	return (in+2*pad-kernel)/stride + 1
}

// Conv2D applies a square-kernel 2-D convolution with its own weight
// (OIHW) and bias to an NCHW activation and returns the NCHW output.
func (g *Graph) Conv2D(name string, x *Tensor, outC, kernel, stride, pad int) *Tensor {
	return g.Conv2DRect(name, x, outC, kernel, kernel, stride, stride, pad, pad)
}

// Conv2DRect is the general 2-D convolution (rectangular kernels such
// as Inception's 1×7/7×1 factorizations). Workspace models the
// per-sample im2col buffer of a GEMM-based convolution; it is the
// operator-workspace memory that the paper notes shrinks under split
// (Sec. III-A).
func (g *Graph) Conv2DRect(name string, x *Tensor, outC, kh, kw, sh, sw, ph, pw int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := g.convOut(name, h, kh, sh, ph)
	ow := g.convOut(name, w, kw, sw, pw)
	weight := g.Param(name+".w", tensor.NewShape(outC, c, kh, kw))
	bias := g.Param(name+".b", tensor.NewShape(outC))
	y := g.feature(name+".y", tensor.NewShape(n, outC, oh, ow), x.DType)
	op := g.NewOp(name, Conv2D, Forward, []*Tensor{x, weight, bias}, []*Tensor{y}, Attrs{
		KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: ph, PadW: pw,
	})
	op.Workspace = int64(c*kh*kw) * int64(oh*ow) * x.DType.Size()
	return y
}

// Dense applies y = x·W + b where x is [N, in] and W is [in, out].
func (g *Graph) Dense(name string, x *Tensor, outDim int) *Tensor {
	if x.Shape.Rank() != 2 {
		panic(fmt.Sprintf("graph: Dense wants rank-2 input, got %v", x.Shape))
	}
	n, in := x.Shape[0], x.Shape[1]
	weight := g.Param(name+".w", tensor.NewShape(in, outDim))
	bias := g.Param(name+".b", tensor.NewShape(outDim))
	y := g.feature(name+".y", tensor.NewShape(n, outDim), x.DType)
	g.NewOp(name, MatMul, Forward, []*Tensor{x, weight, bias}, []*Tensor{y}, Attrs{})
	return y
}

// MatMul3 multiplies batched rank-3 activations [B, M, K] × [B, K, N]
// (used inside attention, where both operands are activations).
func (g *Graph) MatMul3(name string, a, b *Tensor) *Tensor {
	if a.Shape.Rank() != 3 || b.Shape.Rank() != 3 {
		panic(fmt.Sprintf("graph: MatMul3 wants rank-3, got %v × %v", a.Shape, b.Shape))
	}
	if a.Shape[2] != b.Shape[1] || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("graph: MatMul3 shape mismatch %v × %v", a.Shape, b.Shape))
	}
	y := g.feature(name+".y", tensor.NewShape(a.Shape[0], a.Shape[1], b.Shape[2]), a.DType)
	g.NewOp(name, MatMul, Forward, []*Tensor{a, b}, []*Tensor{y}, Attrs{})
	return y
}

// DenseSeq applies a dense projection to a sequence activation
// [N, S, in] with weight [in, out], the core op of Transformers.
func (g *Graph) DenseSeq(name string, x *Tensor, outDim int) *Tensor {
	if x.Shape.Rank() != 3 {
		panic(fmt.Sprintf("graph: DenseSeq wants rank-3 input, got %v", x.Shape))
	}
	n, s, in := x.Shape[0], x.Shape[1], x.Shape[2]
	weight := g.Param(name+".w", tensor.NewShape(in, outDim))
	bias := g.Param(name+".b", tensor.NewShape(outDim))
	y := g.feature(name+".y", tensor.NewShape(n, s, outDim), x.DType)
	g.NewOp(name, MatMul, Forward, []*Tensor{x, weight, bias}, []*Tensor{y}, Attrs{})
	return y
}

// ReLU applies the rectifier element-wise.
func (g *Graph) ReLU(name string, x *Tensor) *Tensor {
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, ReLU, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{})
	return y
}

// GELU applies the Gaussian error linear unit element-wise.
func (g *Graph) GELU(name string, x *Tensor) *Tensor {
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, GELU, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{})
	return y
}

// MaxPool applies max pooling over NCHW.
func (g *Graph) MaxPool(name string, x *Tensor, kernel, stride, pad int) *Tensor {
	return g.pool(name, MaxPool, x, kernel, stride, pad)
}

// AvgPool applies average pooling over NCHW. A kernel equal to the
// spatial extent implements global average pooling.
func (g *Graph) AvgPool(name string, x *Tensor, kernel, stride, pad int) *Tensor {
	return g.pool(name, AvgPool, x, kernel, stride, pad)
}

func (g *Graph) pool(name string, kind OpKind, x *Tensor, kernel, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := g.convOut(name, h, kernel, stride, pad)
	ow := g.convOut(name, w, kernel, stride, pad)
	y := g.feature(name+".y", tensor.NewShape(n, c, oh, ow), x.DType)
	g.NewOp(name, kind, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{
		KernelH: kernel, KernelW: kernel, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	})
	return y
}

// BatchNorm applies per-channel batch normalization to NCHW with
// learnable scale and shift.
func (g *Graph) BatchNorm(name string, x *Tensor) *Tensor {
	c := x.Shape[1]
	scale := g.Param(name+".scale", tensor.NewShape(c))
	shift := g.Param(name+".shift", tensor.NewShape(c))
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, BatchNorm, Forward, []*Tensor{x, scale, shift}, []*Tensor{y}, Attrs{})
	return y
}

// LayerNorm normalizes the last axis with learnable gain and bias.
func (g *Graph) LayerNorm(name string, x *Tensor) *Tensor {
	d := x.Shape[x.Shape.Rank()-1]
	gamma := g.Param(name+".gamma", tensor.NewShape(d))
	beta := g.Param(name+".beta", tensor.NewShape(d))
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, LayerNorm, Forward, []*Tensor{x, gamma, beta}, []*Tensor{y}, Attrs{})
	return y
}

// Softmax normalizes along axis.
func (g *Graph) Softmax(name string, x *Tensor, axis int) *Tensor {
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, Softmax, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{Axis: axis})
	return y
}

// Dropout applies (training-mode) dropout with keep probability keep.
func (g *Graph) Dropout(name string, x *Tensor, keep float64) *Tensor {
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, Dropout, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{Prob: keep})
	return y
}

// Add returns the element-wise sum of two same-shape activations
// (residual connections).
func (g *Graph) Add(name string, a, b *Tensor) *Tensor {
	if !a.Shape.Equal(b.Shape) {
		panic(fmt.Sprintf("graph: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	y := g.feature(name+".y", a.Shape, a.DType)
	g.NewOp(name, Add, Forward, []*Tensor{a, b}, []*Tensor{y}, Attrs{})
	return y
}

// Concat concatenates activations along axis (Inception branches).
func (g *Graph) Concat(name string, axis int, xs ...*Tensor) *Tensor {
	if len(xs) == 0 {
		panic("graph: Concat of zero tensors")
	}
	shapes := make([]tensor.Shape, len(xs))
	for i, x := range xs {
		shapes[i] = x.Shape
	}
	out, err := tensor.Merge(shapes, axis)
	if err != nil {
		panic("graph: " + err.Error())
	}
	y := g.feature(name+".y", out, xs[0].DType)
	g.NewOp(name, Concat, Forward, xs, []*Tensor{y}, Attrs{Axis: axis})
	return y
}

// EmbeddingLookup gathers rows of a [vocab, dim] table for an [N, S]
// int tensor of token ids.
func (g *Graph) EmbeddingLookup(name string, ids *Tensor, vocab, dim int) *Tensor {
	table := g.Param(name+".table", tensor.NewShape(vocab, dim))
	n, s := ids.Shape[0], ids.Shape[1]
	y := g.feature(name+".y", tensor.NewShape(n, s, dim), tensor.Float32)
	g.NewOp(name, Embedding, Forward, []*Tensor{ids, table}, []*Tensor{y}, Attrs{})
	return y
}

// Reshape reinterprets x with a new shape of equal element count.
func (g *Graph) Reshape(name string, x *Tensor, shape tensor.Shape) *Tensor {
	if shape.NumElements() != x.Shape.NumElements() {
		panic(fmt.Sprintf("graph: Reshape element mismatch %v -> %v", x.Shape, shape))
	}
	y := g.feature(name+".y", shape, x.DType)
	g.NewOp(name, Reshape, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{})
	return y
}

// Scale multiplies x by a scalar constant (e.g. 1/sqrt(d_k)).
func (g *Graph) Scale(name string, x *Tensor, factor float64) *Tensor {
	y := g.feature(name+".y", x.Shape, x.DType)
	g.NewOp(name, Scale, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{Prob: factor})
	return y
}

// TransposeLast swaps the last two axes (for attention K^T).
func (g *Graph) TransposeLast(name string, x *Tensor) *Tensor {
	r := x.Shape.Rank()
	if r < 2 {
		panic(fmt.Sprintf("graph: TransposeLast wants rank>=2, got %v", x.Shape))
	}
	shape := x.Shape.Clone()
	shape[r-1], shape[r-2] = shape[r-2], shape[r-1]
	y := g.feature(name+".y", shape, x.DType)
	g.NewOp(name, Transpose, Forward, []*Tensor{x}, []*Tensor{y}, Attrs{})
	return y
}

// CrossEntropyLoss computes the scalar softmax-cross-entropy loss of
// logits against int labels and records it as the graph loss.
func (g *Graph) CrossEntropyLoss(name string, logits, labels *Tensor) *Tensor {
	loss := g.feature(name+".loss", tensor.NewShape(1), tensor.Float32)
	g.NewOp(name, CrossEntropy, Forward, []*Tensor{logits, labels}, []*Tensor{loss}, Attrs{})
	g.Loss = loss
	return loss
}

// Stats summarizes a graph for reports and docs.
type Stats struct {
	Ops           int
	Tensors       int
	Params        int
	ParamBytes    int64
	FeatureBytes  int64 // total bytes of forward feature maps
	LargestTensor int64
}

// Stats computes summary statistics over the graph.
func (g *Graph) Stats() Stats {
	s := Stats{Ops: len(g.Ops), Tensors: len(g.Tensors), Params: len(g.Params)}
	for _, p := range g.Params {
		s.ParamBytes += p.Bytes()
	}
	for _, t := range g.Tensors {
		if t.Kind == tensor.FeatureMap {
			s.FeatureBytes += t.Bytes()
		}
		if b := t.Bytes(); b > s.LargestTensor {
			s.LargestTensor = b
		}
	}
	return s
}
