// Package graph implements the dataflow-graph (DFG) representation of
// DNN training used throughout TSPLIT (paper Sec. II): nodes are
// operations, edges are tensors. It provides builders for forward
// graphs, automatic generation of the backward (gradient) graph and
// optimizer updates, the depth-first execution scheduler of the paper's
// Algorithm 1, the liveness analysis that yields per-operation
// memory requirements (paper Sec. IV-A), and batch templates that
// produce all three at a new batch size without rebuilding them.
package graph

import (
	"fmt"

	"tsplit/internal/tensor"
)

// OpKind enumerates every operator the model zoo and the augmented
// (post-planning) graphs use. Memory-management operators (SwapOut,
// SwapIn, SplitOp, MergeOp) are inserted by the planner's graph rewrite
// (paper Fig. 10) and never appear in user-built graphs.
type OpKind int

const (
	// --- compute operators (forward) ---
	Conv2D OpKind = iota
	MatMul
	BiasAdd
	ReLU
	GELU
	MaxPool
	AvgPool
	BatchNorm
	LayerNorm
	Softmax
	Dropout
	Add
	Concat
	Embedding
	CrossEntropy
	Scale
	Transpose
	Reshape

	// --- training operators ---
	GradOp    // backward of some forward op (see Op.FwdOp)
	SGDUpdate // parameter update: consumes param + param-grad

	// --- memory-management operators (inserted by planners) ---
	SwapOut   // device -> host copy, then free device copy
	SwapIn    // host -> device copy
	SplitOp   // carve a tensor into micro-tensors (possibly in place)
	MergeOp   // concatenate or reduce micro-tensors (possibly in place)
	Recompute // re-execution marker wrapping a forward subgraph op
)

// String returns the operator name used in traces and plans.
func (k OpKind) String() string {
	switch k {
	case Conv2D:
		return "conv2d"
	case MatMul:
		return "matmul"
	case BiasAdd:
		return "bias-add"
	case ReLU:
		return "relu"
	case GELU:
		return "gelu"
	case MaxPool:
		return "maxpool"
	case AvgPool:
		return "avgpool"
	case BatchNorm:
		return "batchnorm"
	case LayerNorm:
		return "layernorm"
	case Softmax:
		return "softmax"
	case Dropout:
		return "dropout"
	case Add:
		return "add"
	case Concat:
		return "concat"
	case Embedding:
		return "embedding"
	case CrossEntropy:
		return "cross-entropy"
	case Scale:
		return "scale"
	case Transpose:
		return "transpose"
	case Reshape:
		return "reshape"
	case GradOp:
		return "grad"
	case SGDUpdate:
		return "sgd-update"
	case SwapOut:
		return "swap-out"
	case SwapIn:
		return "swap-in"
	case SplitOp:
		return "split"
	case MergeOp:
		return "merge"
	case Recompute:
		return "recompute"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// Phase partitions the schedule into the forward pass, backward pass,
// and optimizer-update tail of one training iteration.
type Phase int

const (
	Forward Phase = iota
	Backward
	Update
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	default:
		return "update"
	}
}

// Attrs carries the operator hyper-parameters needed by shape inference
// and the cost model. Only the fields relevant to an operator kind are
// set; the zero value is valid for element-wise operators.
type Attrs struct {
	KernelH, KernelW int     // convolution / pooling window
	StrideH, StrideW int     // convolution / pooling stride
	PadH, PadW       int     // symmetric padding
	Axis             int     // concat / split / softmax axis
	Prob             float64 // dropout keep probability
	Heads            int     // attention head count (for naming only)
}

// Tensor is an edge of the dataflow graph: a value produced by exactly
// one operator (or staged as a graph input/parameter) and consumed by
// zero or more operators. It carries metadata only; buffers live in the
// runtime.
type Tensor struct {
	ID    int
	Name  string
	Shape tensor.Shape
	DType tensor.DType
	Kind  tensor.Kind

	// Producer is the op whose output this tensor is, or nil for graph
	// inputs and parameters.
	Producer *Op
	// Consumers are the ops that read this tensor, in creation order.
	Consumers []*Op

	// GradOf links a Gradient/ParamGrad tensor back to the value it is
	// the gradient of; nil for non-gradient tensors.
	GradOf *Tensor

	// bytes caches Shape.Bytes(DType), computed once at construction
	// (graph.NewTensor) — Bytes() sits on the planner's hottest loops
	// and the shape walk is too expensive to repeat there. Zero for
	// hand-assembled tensors, which fall back to computing on demand.
	bytes int64
}

// Bytes returns the tensor's storage footprint.
func (t *Tensor) Bytes() int64 {
	if t.bytes != 0 {
		return t.bytes
	}
	return t.Shape.Bytes(t.DType)
}

// String renders "name kind shape (size)".
func (t *Tensor) String() string {
	return fmt.Sprintf("%s<%s,%s,%s>", t.Name, t.Kind, t.DType, t.Shape)
}

// Op is a node of the dataflow graph.
type Op struct {
	ID      int
	Name    string
	Kind    OpKind
	Phase   Phase
	Inputs  []*Tensor
	Outputs []*Tensor
	Attrs   Attrs

	// FwdOp links a GradOp back to the forward operator it
	// differentiates, and a Recompute op to the operator it re-executes.
	FwdOp *Op

	// Workspace is scratch memory the operator needs while executing
	// (e.g. im2col / FFT convolution buffers). It is allocated at op
	// start and freed at op end, and shrinks proportionally when the
	// operator is split (paper Sec. III-A).
	Workspace int64

	// ControlDeps are extra scheduling edges inserted by the planner's
	// graph rewrite (paper Sec. V-A: "additional control flow edges").
	// The op may not issue before every control dependency completes.
	ControlDeps []*Op
}

// String renders "name(kind)".
func (o *Op) String() string { return fmt.Sprintf("%s(%s)", o.Name, o.Kind) }

// EffectiveKind resolves a GradOp to the operator kind it
// differentiates; any other op is its own kind.
func (o *Op) EffectiveKind() OpKind {
	if o.Kind == GradOp && o.FwdOp != nil {
		return o.FwdOp.Kind
	}
	return o.Kind
}

// HasInput reports whether t is one of o's data inputs.
func (o *Op) HasInput(t *Tensor) bool {
	for _, in := range o.Inputs {
		if in == t {
			return true
		}
	}
	return false
}
