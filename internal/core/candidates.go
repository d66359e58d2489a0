package core

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// SplitTensors identifies the activation input and the output of op
// that a split along dim would carve, or nils when op is not splittable
// along dim. For the sample dimension both must share the batch axis
// (axis 0); for the parameter dimension the "input" side is the weight
// and the carved output axis is the channel/hidden axis.
func SplitTensors(op *graph.Op, dim tensor.SplitDim) (in, out *graph.Tensor) {
	if len(op.Outputs) == 0 {
		return nil, nil
	}
	o := op.Outputs[0]
	kind := op.EffectiveKind()
	switch dim {
	case tensor.DimSample:
		switch kind {
		case graph.Conv2D, graph.MatMul, graph.ReLU, graph.GELU, graph.MaxPool,
			graph.AvgPool, graph.Dropout, graph.LayerNorm, graph.Scale, graph.Embedding,
			graph.Add, graph.BatchNorm, graph.CrossEntropy:
		case graph.Softmax:
			if op.Attrs.Axis == 0 {
				return nil, nil
			}
		default:
			return nil, nil
		}
		if o.Shape.Rank() < 2 {
			return nil, nil
		}
		for _, t := range op.Inputs {
			switch t.Kind {
			case tensor.FeatureMap, tensor.Input, tensor.Gradient:
				if t.Shape.Rank() >= 2 && t.Shape[0] == o.Shape[0] {
					return t, o
				}
			}
		}
		return nil, nil
	case tensor.DimParam:
		switch kind {
		case graph.Conv2D, graph.MatMul:
		default:
			return nil, nil
		}
		// The weight operand is carved along its output axis.
		for _, t := range op.Inputs {
			if t.Kind == tensor.Parameter && t.Shape.Rank() >= 2 {
				return t, o
			}
		}
		return nil, nil
	}
	return nil, nil
}

// splitAxis returns the concrete axis of the carved output for dim.
func splitAxis(op *graph.Op, dim tensor.SplitDim) int {
	if dim == tensor.DimSample {
		return 0
	}
	if op.EffectiveKind() == graph.Conv2D {
		return 1 // NCHW channel axis
	}
	return op.Outputs[0].Shape.Rank() - 1 // hidden axis of matmul
}

// appendUses appends the schedule indices of t's consumers to buf and
// sorts the appended part ascending.
func appendUses(buf []int, t *graph.Tensor, sched *graph.Schedule) []int {
	n := len(buf)
	for _, c := range t.Consumers {
		buf = append(buf, sched.Index[c])
	}
	idx := buf[n:]
	for i := 1; i < len(idx); i++ { // insertion sort; consumer lists are short
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return buf
}

// WalkChain returns the forward operators that must re-execute to
// rebuild t, in execution order, walking producers depth-first in
// input order until every leaf satisfies q. Exceeding maxLen distinct
// ops, or reaching a producer-less tensor q rejects, is an error. The
// returned slice belongs to w and is valid until its next walk.
func WalkChain[Q ChainAvail](w *ChainWalker, t *graph.Tensor, q Q, maxLen int) ([]*graph.Op, error) {
	chain, err := walkChain(w, t, q, maxLen, nil)
	switch err {
	case nil:
		return chain, nil
	case errChainNoProducer:
		return nil, fmt.Errorf("core: recompute source %s has no producer and is not available", w.failed.Name)
	default:
		return nil, fmt.Errorf("core: recompute chain for %s exceeds %d ops", t.Name, maxLen)
	}
}

// availFunc adapts a caller-supplied predicate to the chain walker.
type availFunc func(*graph.Tensor) bool

func (f availFunc) Avail(t *graph.Tensor) bool { return f(t) }

// RecomputeChain is WalkChain over a predicate, on a throwaway walker.
func RecomputeChain(t *graph.Tensor, avail func(*graph.Tensor) bool, maxLen int) ([]*graph.Op, error) {
	var w ChainWalker // the visited set grows to the target's producer ID on the first visit
	return WalkChain(&w, t, availFunc(avail), maxLen)
}

// chainTransientBytes estimates the extra device memory a
// regeneration of t needs while its chain executes. Under the
// LRU-hybrid runtime (paper Sec. V-D) chain intermediates are shed as
// soon as memory pressure appears, so the irreducible transient is the
// largest single intermediate that must coexist with the target — not
// the full chain replay. The regenerated target itself is excluded
// (the memory simulation already charges it from its restore point).
func chainTransientBytes(chain []*graph.Op, t *graph.Tensor) int64 {
	var max int64
	for _, op := range chain {
		for _, o := range op.Outputs {
			if o == t {
				continue
			}
			if b := o.Bytes(); b > max {
				max = b
			}
		}
	}
	return max
}
