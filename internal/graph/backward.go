package graph

import (
	"fmt"

	"tsplit/internal/tensor"
)

// Optimizer selects the parameter-update rule appended by
// Differentiate. The choice matters to the memory experiments: Adam
// keeps two state tensors per parameter, which is exactly the memory
// that ZeRO-Offload moves to the CPU (paper Sec. VI-D).
type Optimizer int

const (
	// SGD is plain stochastic gradient descent with no optimizer state.
	SGD Optimizer = iota
	// Momentum keeps one state tensor per parameter.
	Momentum
	// Adam keeps two state tensors per parameter.
	Adam
)

// StateTensors returns how many per-parameter state tensors the
// optimizer maintains.
func (o Optimizer) StateTensors() int {
	switch o {
	case Momentum:
		return 1
	case Adam:
		return 2
	default:
		return 0
	}
}

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case SGD:
		return "sgd"
	case Momentum:
		return "momentum"
	default:
		return "adam"
	}
}

// savedForBackward returns the forward tensors the gradient of op needs
// as inputs. These references are what keep feature maps alive from the
// forward pass into the backward pass — the dominant memory cost the
// paper targets (Sec. II, Fig. 3).
func savedForBackward(op *Op) []*Tensor {
	switch op.Kind {
	case Conv2D:
		return []*Tensor{op.Inputs[0], op.Inputs[1]} // x, w
	case MatMul:
		return []*Tensor{op.Inputs[0], op.Inputs[1]} // a, b (or x, w)
	case ReLU, GELU:
		// Mask-from-input semantics (no in-place update), as in the
		// Caffe-lineage framework the paper builds on: the
		// pre-activation stays live until the backward pass.
		return []*Tensor{op.Inputs[0]}
	case Softmax, Dropout:
		return []*Tensor{op.Outputs[0]}
	case MaxPool:
		return []*Tensor{op.Inputs[0], op.Outputs[0]}
	case BatchNorm, LayerNorm:
		return []*Tensor{op.Inputs[0], op.Inputs[1]} // x, scale/gamma
	case Embedding:
		return []*Tensor{op.Inputs[0]} // ids
	case CrossEntropy:
		return []*Tensor{op.Inputs[0], op.Inputs[1]} // logits, labels
	default:
		return nil
	}
}

// needsGrad reports whether a gradient tensor must be produced for t,
// and of which kind.
func needsGrad(t *Tensor) (tensor.Kind, bool) {
	switch t.Kind {
	case tensor.FeatureMap:
		return tensor.Gradient, true
	case tensor.Parameter:
		return tensor.ParamGrad, true
	default:
		return 0, false
	}
}

// Differentiate appends the backward (gradient) graph and the optimizer
// update tail to a forward graph whose loss has been set by
// CrossEntropyLoss. It implements standard reverse-mode accumulation:
// forward ops are visited in reverse topological (creation) order, each
// contributing a GradOp whose inputs are the upstream gradient plus the
// saved forward tensors, with explicit Add ops where a tensor receives
// gradients from several consumers.
func (g *Graph) Differentiate(opt Optimizer) error {
	if g.err != nil {
		return g.err
	}
	if g.Loss == nil {
		return fmt.Errorf("graph: Differentiate called before CrossEntropyLoss")
	}
	// gradOf maps a forward tensor to its (accumulated) gradient.
	gradOf := make(map[*Tensor]*Tensor)

	forward := make([]*Op, len(g.Ops))
	copy(forward, g.Ops)

	addGrad := func(t, gnew *Tensor) {
		prev, ok := gradOf[t]
		if !ok {
			gradOf[t] = gnew
			return
		}
		acc := g.NewTensor(t.Name+".gacc", t.Shape, t.DType, gnew.Kind)
		acc.GradOf = t
		g.NewOp("acc."+t.Name, Add, Backward, []*Tensor{prev, gnew}, []*Tensor{acc}, Attrs{})
		gradOf[t] = acc
	}

	for i := len(forward) - 1; i >= 0; i-- {
		op := forward[i]
		var upstream []*Tensor
		if op.Kind == CrossEntropy {
			// The loss op seeds backpropagation; its gradient is the
			// constant 1 and needs no tensor.
		} else {
			gout, ok := gradOf[op.Outputs[0]]
			if !ok {
				// Output unused on any path to the loss: no gradient
				// flows through this op.
				continue
			}
			upstream = []*Tensor{gout}
		}

		inputs := append(upstream, savedForBackward(op)...)
		var outputs []*Tensor
		var gradTargets []*Tensor
		for _, in := range op.Inputs {
			kind, ok := needsGrad(in)
			if !ok {
				continue
			}
			gt := g.NewTensor("d"+in.Name, in.Shape, in.DType, kind)
			gt.GradOf = in
			outputs = append(outputs, gt)
			gradTargets = append(gradTargets, in)
		}
		if len(outputs) == 0 {
			continue
		}
		gop := g.NewOp("d"+op.Name, GradOp, Backward, inputs, outputs, op.Attrs)
		gop.FwdOp = op
		// Conv backward needs a workspace comparable to forward's.
		gop.Workspace = op.Workspace
		for j, t := range gradTargets {
			addGrad(t, gop.Outputs[j])
		}
	}

	// Optimizer update tail: one update op per parameter, in reverse
	// creation order (gradients for late layers are ready first).
	for i := len(g.Params) - 1; i >= 0; i-- {
		p := g.Params[i]
		pg, ok := gradOf[p]
		if !ok {
			continue // frozen or unused parameter
		}
		ins := []*Tensor{p, pg}
		for s := 0; s < opt.StateTensors(); s++ {
			st := g.NewTensor(fmt.Sprintf("%s.opt%d", p.Name, s), p.Shape, p.DType, tensor.OptState)
			g.OptStates = append(g.OptStates, st)
			ins = append(ins, st)
		}
		g.NewOp("upd."+p.Name, SGDUpdate, Update, ins, nil, Attrs{})
	}
	return nil
}

// GradTensor returns the gradient tensor recorded for t after
// Differentiate, or nil. It resolves through the GradOf back-links, so
// it observes accumulated gradients.
func (g *Graph) GradTensor(t *Tensor) *Tensor {
	var last *Tensor
	for _, cand := range g.Tensors {
		if cand.GradOf == t {
			last = cand
		}
	}
	return last
}
