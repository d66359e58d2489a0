// Package baselines implements the memory-management policies TSPLIT
// is evaluated against (paper Sec. VI-A):
//
//   - Base: store everything (common DL framework behaviour).
//   - vDNN-conv: swap the inputs of convolution layers.
//   - vDNN-all: swap all feature maps.
//   - Checkpoints: sqrt(N) gradient checkpointing (recompute).
//   - SuperNeurons: swap convolution outputs, recompute cheap layers,
//     LRU-managed recomputation.
//   - ZeRO-Offload: optimizer state and update on the CPU.
//   - FairScale-Offload: parameters sharded to the CPU and staged per
//     layer, activations swapped.
//
// Every baseline emits the same core.Plan representation TSPLIT's
// planner does and runs on the same runtime, so measured differences
// are policy differences — the comparison methodology of the paper.
package baselines

import (
	"fmt"
	"math"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
)

// Inputs bundles what a baseline planner needs.
type Inputs struct {
	G     *graph.Graph
	Sched *graph.Schedule
	Lv    *graph.Liveness
	Prof  *profiler.Profile
	Dev   device.Device
	// Store, when non-nil, holds the plan's lists (see core.PlanStore):
	// the plan lives until the store's next use. Nil gives the plan
	// lists of its own.
	Store *core.PlanStore
}

// Planner produces a plan for a policy, or an error when the policy
// does not apply to the model (the × entries of Tables IV/V).
type Planner func(Inputs) (*core.Plan, error)

// Registry maps policy names to planners, in the paper's order.
var Registry = map[string]Planner{
	"base":              Base,
	"vdnn-conv":         VDNNConv,
	"vdnn-all":          VDNNAll,
	"checkpoints":       Checkpoints,
	"superneurons":      SuperNeurons,
	"zero-offload":      ZeroOffload,
	"fairscale-offload": FairScaleOffload,
}

// Names lists the policies in the paper's table order.
var Names = []string{"base", "vdnn-conv", "vdnn-all", "checkpoints", "superneurons", "zero-offload", "fairscale-offload"}

// backwardUsed reports whether t is consumed after the forward pass —
// only such tensors are worth evicting.
func backwardUsed(t *graph.Tensor) bool {
	for _, c := range t.Consumers {
		if c.Phase != graph.Forward {
			return true
		}
	}
	return false
}

// Base stores all feature maps and parameters (paper: "common DL
// systems (e.g., TensorFlow, PyTorch)").
func Base(in Inputs) (*core.Plan, error) {
	return core.NewPlan("base", in.Dev), nil
}

// decide builds a rule's plan: rule walks the workload and calls add
// once per decision, or returns an error when the policy does not
// apply. It walks twice, once to count the decisions and once to write
// them into a list sized once from the count (in.Store's, or one of
// its own), and FinalizeWindows then places their windows.
func decide(in Inputs, name string, rule func(add func(*graph.Tensor, core.MemOpt)) error) (*core.Plan, error) {
	n := 0
	if err := rule(func(*graph.Tensor, core.MemOpt) { n++ }); err != nil {
		return nil, err
	}
	plan := core.NewPlan(name, in.Dev)
	plan.Tensors = in.Store.Tensors(n)
	// The rule walks as it did when counting, so its error is nil again.
	_ = rule(func(t *graph.Tensor, opt core.MemOpt) {
		plan.Tensors = append(plan.Tensors, core.TensorPlan{Tensor: t, Opt: opt})
	})
	core.FinalizeWindows(in.G, in.Sched, in.Lv, in.Prof, plan, in.Store)
	return plan, nil
}

// VDNNConv virtualizes the inputs of convolution layers (vDNN's
// conv-only policy). Models without convolutions cannot benefit at
// all, which the paper marks ×.
func VDNNConv(in Inputs) (*core.Plan, error) {
	return decide(in, "vdnn-conv", func(add func(*graph.Tensor, core.MemOpt)) error {
		found := false
		for _, op := range in.G.Ops {
			if op.Kind != graph.Conv2D || op.Phase != graph.Forward {
				continue
			}
			found = true
			for _, t := range op.Inputs {
				if t.Kind.Evictable() && backwardUsed(t) {
					add(t, core.Swap)
				}
			}
		}
		if !found {
			return fmt.Errorf("baselines: vdnn-conv has no convolution layers to offload")
		}
		return nil
	})
}

// VDNNAll swaps every feature map regardless of demand (vDNN's
// all-layer policy — maximal scale, worst overhead).
func VDNNAll(in Inputs) (*core.Plan, error) {
	return decide(in, "vdnn-all", func(add func(*graph.Tensor, core.MemOpt)) error {
		for _, t := range in.G.Tensors {
			if t.Kind.Evictable() && backwardUsed(t) {
				add(t, core.Swap)
			}
		}
		return nil
	})
}

// Checkpoints implements sqrt(N) gradient checkpointing (Chen et al.):
// forward activations are segmented; segment boundaries reside,
// interior activations are recomputed from the nearest boundary.
func Checkpoints(in Inputs) (*core.Plan, error) {
	// acts calls visit on each forward activation, in schedule order.
	acts := func(visit func(*graph.Tensor)) {
		for _, op := range in.Sched.Ops {
			if op.Phase != graph.Forward {
				continue
			}
			for _, t := range op.Outputs {
				if t.Kind == tensor.FeatureMap && backwardUsed(t) {
					visit(t)
				}
			}
		}
	}
	n := 0
	acts(func(*graph.Tensor) { n++ })
	seg := int(math.Ceil(math.Sqrt(float64(n))))
	return decide(in, "checkpoints", func(add func(*graph.Tensor, core.MemOpt)) error {
		i := 0
		acts(func(t *graph.Tensor) {
			if i++; i%seg != 0 { // every seg-th activation is a checkpoint boundary and resides
				add(t, core.Recompute)
			}
		})
		return nil
	})
}

// cheapToRecompute lists the layer types SuperNeurons regenerates
// instead of swapping.
func cheapToRecompute(k graph.OpKind) bool {
	switch k {
	case graph.ReLU, graph.GELU, graph.MaxPool, graph.AvgPool, graph.BatchNorm,
		graph.Dropout, graph.Scale, graph.Softmax:
		return true
	default:
		return false
	}
}

// SuperNeurons swaps convolution outputs and recomputes
// cheap-to-compute layers, by layer type (Wang et al.). Its LRU
// recomputation cache is selected in the runtime options. Without
// convolution layers there are no checkpoints to recompute from, which
// the paper marks ×.
func SuperNeurons(in Inputs) (*core.Plan, error) {
	return decide(in, "superneurons", func(add func(*graph.Tensor, core.MemOpt)) error {
		hasConv := false
		for _, op := range in.Sched.Ops {
			if op.Phase != graph.Forward {
				continue
			}
			for _, t := range op.Outputs {
				if t.Kind != tensor.FeatureMap || !backwardUsed(t) {
					continue
				}
				switch {
				case op.Kind == graph.Conv2D:
					hasConv = true
					add(t, core.Swap)
				case cheapToRecompute(op.Kind):
					add(t, core.Recompute)
				}
			}
		}
		if !hasConv {
			return fmt.Errorf("baselines: superneurons has no convolution layers as swap checkpoints")
		}
		// The staged input batch is also swapped once consumed.
		for _, t := range in.G.Inputs {
			if t.Kind.Evictable() && backwardUsed(t) {
				add(t, core.Swap)
			}
		}
		return nil
	})
}

// ZeroOffload keeps optimizer state and the parameter update on the
// CPU and streams parameter gradients out as produced (Ren et al.).
// Activations stay on the GPU, so CNN-scale gains are small — exactly
// the paper's Table VI observation.
func ZeroOffload(in Inputs) (*core.Plan, error) {
	plan := core.NewPlan("zero-offload", in.Dev)
	plan.OffloadOptimizer = true
	return plan, nil
}

// FairScaleOffload shards parameters to the CPU, staging each layer's
// weights around their uses, runs the optimizer on the CPU, and copies
// intermediate activations between CPU and GPU.
func FairScaleOffload(in Inputs) (*core.Plan, error) {
	plan, _ := decide(in, "fairscale-offload", func(add func(*graph.Tensor, core.MemOpt)) error { // applies to every model
		for _, t := range in.G.Tensors {
			if t.Kind == tensor.FeatureMap && backwardUsed(t) {
				add(t, core.Swap)
			}
		}
		return nil
	})
	plan.ShardParams = true
	plan.OffloadOptimizer = true
	return plan, nil
}
