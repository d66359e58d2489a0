// Package tensor provides the shape and data-type algebra underlying
// TSPLIT's splittable-tensor (sTensor) abstraction.
//
// A tensor in the dataflow graph is metadata only: a shape, an element
// type, and a semantic kind (parameter, feature map, gradient, ...).
// The split primitive of the paper (Sec. V-A) operates on this metadata:
// splitting a tensor along a dimension yields the shapes of its
// micro-tensors, and merging is the inverse. Real data movement is the
// concern of internal/nn and internal/sim; this package answers the
// purely combinatorial questions (what shapes result from a split, how
// many bytes a micro-tensor occupies, which dimensions are splittable).
package tensor

import (
	"fmt"
	"strings"
)

// DType identifies the element type of a tensor.
type DType int

// Supported element types. Float32 is the training dtype used throughout
// the paper's evaluation; Float16 and Int32 exist for workloads that
// carry embeddings or token ids.
const (
	Float32 DType = iota
	Float16
	Int32
	Int64
)

// Size returns the size of one element in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float32, Int32:
		return 4
	case Float16:
		return 2
	case Int64:
		return 8
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
	}
}

// String returns the conventional lower-case name of the dtype.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Shape is the extent of a tensor along each dimension. Dimension 0 is,
// by convention in every model of the zoo, the sample (batch) dimension
// for activations; parameters use their natural layout (e.g. OIHW for
// convolution kernels).
type Shape []int

// NewShape copies dims into a fresh Shape, validating that every extent
// is positive.
func NewShape(dims ...int) Shape {
	s := make(Shape, len(dims))
	for i, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d at axis %d", d, i))
		}
		s[i] = d
	}
	return s
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// NumElements returns the total element count, or 0 for a rank-0 shape.
func (s Shape) NumElements() int64 {
	if len(s) == 0 {
		return 0
	}
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Bytes returns the storage footprint of the shape in dtype dt.
func (s Shape) Bytes(dt DType) int64 { return s.NumElements() * dt.Size() }

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the shape as "[a b c]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Kind is the semantic role of a tensor in DNN training. The memory
// planner treats kinds differently: parameters and their gradients are
// pinned on device for the whole iteration, feature maps are the swap /
// recompute / split candidates (paper Sec. II), and workspaces live only
// for the duration of one operator.
type Kind int

const (
	// FeatureMap is an activation produced in the forward pass and
	// consumed again by the backward pass — the dominant memory class.
	FeatureMap Kind = iota
	// Parameter is a trainable weight, resident for the whole run.
	Parameter
	// Gradient is the gradient of a feature map (backward activation).
	Gradient
	// ParamGrad is the gradient of a parameter, produced in backward
	// and consumed by the optimizer update.
	ParamGrad
	// OptState is optimizer state (momentum, variance) — resident, and
	// the tensor class that ZeRO-Offload moves to the CPU.
	OptState
	// Input is a training batch staged from the host.
	Input
	// Workspace is scratch memory used by a single operator.
	Workspace
	// HostCopy is a handle to bytes parked in host memory by a
	// swap-out; it occupies no device memory. It appears only in
	// augmented graphs (paper Fig. 10).
	HostCopy
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case FeatureMap:
		return "feature"
	case Parameter:
		return "param"
	case Gradient:
		return "grad"
	case ParamGrad:
		return "param-grad"
	case OptState:
		return "opt-state"
	case Input:
		return "input"
	case Workspace:
		return "workspace"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Evictable reports whether the kind participates in swap / recompute /
// split planning (the paper plans over feature maps; gradients have
// short lifetimes and inputs can be re-staged, so both are also fair
// candidates for swap).
func (k Kind) Evictable() bool {
	switch k {
	case FeatureMap, Input:
		return true
	default:
		return false
	}
}
