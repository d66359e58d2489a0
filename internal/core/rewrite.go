package core

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// Augmented is the materialized form of a plan (paper Fig. 10): a new
// dataflow graph in which split operators have been expanded into
// micro-operators with split/merge glue, swap decisions appear as
// SwapOut/SwapIn operators over host-copy handles, recompute decisions
// appear as duplicated forward subgraphs, and control-flow edges pin
// the timing the planner chose. The paper converts this graph to
// PyTorch/TensorFlow programs (Sec. VI-D); here it drives plan export
// and inspection, while the discrete-event runtime executes plans
// directly.
type Augmented struct {
	G *graph.Graph
	// OrigOf maps an augmented operator to the original operator it
	// implements (nil for inserted memory operators).
	OrigOf map[*graph.Op]*graph.Op
	// InstanceOf maps an augmented tensor to the original tensor whose
	// value it carries (nil for host handles and micro-tensors).
	InstanceOf map[*graph.Tensor]*graph.Tensor

	// Inserted-operator counts, for reports and tests.
	SwapOuts, SwapIns, SplitOps, MergeOps, RecomputeOps int
}

// rewriter carries the walk state.
type rewriter struct {
	src   *graph.Graph
	sched *graph.Schedule
	lv    *graph.Liveness
	plan  *Plan

	ag  *graph.Graph
	out *Augmented
	// cur maps an original tensor to its current on-device instance
	// (nil = evicted / not yet produced).
	cur map[*graph.Tensor]*graph.Tensor
	// host maps an original tensor to its host-copy handle.
	host map[*graph.Tensor]*graph.Tensor
	// prev is the most recent augmented op (timing anchor).
	prev *graph.Op
	// agenda schedules swap-in insertion at prefetch positions.
	agenda map[int][]*graph.Tensor
	// evictAgenda schedules evictions at their planned positions.
	evictAgenda map[int][]*graph.Tensor
}

// Augment materializes the plan over (g, sched) as an augmented graph.
func Augment(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, plan *Plan) (*Augmented, error) {
	rw := &rewriter{
		src: g, sched: sched, lv: lv, plan: plan,
		ag:          graph.New(),
		out:         &Augmented{OrigOf: map[*graph.Op]*graph.Op{}, InstanceOf: map[*graph.Tensor]*graph.Tensor{}},
		cur:         map[*graph.Tensor]*graph.Tensor{},
		host:        map[*graph.Tensor]*graph.Tensor{},
		agenda:      map[int][]*graph.Tensor{},
		evictAgenda: map[int][]*graph.Tensor{},
	}
	rw.out.G = rw.ag

	// Graph sources (params, inputs, optimizer state) exist up front.
	for _, t := range g.Tensors {
		if t.Producer == nil {
			rw.cur[t] = rw.instance(t, t.Name)
		}
	}
	// Plan.Tensors is in tensor-ID order, which keeps the inserted
	// memory operators (and so the whole augmented graph) deterministic.
	for _, tp := range plan.Tensors {
		if tp.Opt == Swap && tp.RestoreAt >= 0 {
			at := tp.PrefetchAt
			if at < 0 || at > tp.RestoreAt {
				at = tp.RestoreAt
			}
			rw.agenda[at] = append(rw.agenda[at], tp.Tensor)
		}
		rw.evictAgenda[tp.EvictAt] = append(rw.evictAgenda[tp.EvictAt], tp.Tensor)
	}

	for i, op := range sched.Ops {
		for _, t := range rw.agenda[i] {
			rw.insertSwapIn(t)
		}
		if sp, ok := plan.SplitFor(op); ok && sp.PNum > 1 {
			if err := rw.expandSplit(op, sp); err != nil {
				return nil, err
			}
		} else {
			if err := rw.cloneOp(op); err != nil {
				return nil, err
			}
		}
		rw.applyEvictions(i)
	}
	return rw.out, nil
}

// instance creates an augmented tensor carrying orig's value.
func (rw *rewriter) instance(orig *graph.Tensor, name string) *graph.Tensor {
	t := rw.ag.NewTensor(name, orig.Shape, orig.DType, orig.Kind)
	rw.out.InstanceOf[t] = orig
	return t
}

// mapInput returns the on-device augmented instance for an original
// input tensor, inserting a late swap-in or a recompute chain when the
// plan evicted it.
func (rw *rewriter) mapInput(t *graph.Tensor) (*graph.Tensor, error) {
	if inst := rw.cur[t]; inst != nil {
		return inst, nil
	}
	tp, ok := rw.plan.Tensor(t.ID)
	if !ok {
		return nil, fmt.Errorf("core: rewrite needs %s but it has no device instance and no plan", t.Name)
	}
	switch tp.Opt {
	case Swap:
		rw.insertSwapIn(t)
		return rw.cur[t], nil
	case Recompute:
		if err := rw.insertRecompute(t); err != nil {
			return nil, err
		}
		return rw.cur[t], nil
	default:
		return nil, fmt.Errorf("core: rewrite cannot restore %s (opt %v)", t.Name, tp.Opt)
	}
}

// insertSwapIn restores t from its host handle.
func (rw *rewriter) insertSwapIn(t *graph.Tensor) {
	if rw.cur[t] != nil {
		return
	}
	h := rw.host[t]
	if h == nil {
		return // never swapped out (e.g. eviction point not reached)
	}
	back := rw.instance(t, t.Name+".back")
	op := rw.ag.NewOp("swapin."+t.Name, graph.SwapIn, graph.Backward, []*graph.Tensor{h}, []*graph.Tensor{back}, graph.Attrs{})
	if rw.prev != nil {
		op.ControlDeps = append(op.ControlDeps, rw.prev)
	}
	rw.cur[t] = back
	rw.prev = op
	rw.out.SwapIns++
}

// insertRecompute duplicates the forward chain regenerating t
// (memory-centric: a fresh chain per restoring consumer).
func (rw *rewriter) insertRecompute(t *graph.Tensor) error {
	avail := func(x *graph.Tensor) bool { return rw.cur[x] != nil || rw.host[x] != nil }
	chain, err := RecomputeChain(t, avail, len(rw.src.Ops))
	if err != nil {
		return fmt.Errorf("core: rewrite: %w", err)
	}
	anchor := rw.prev
	// Fresh instances local to this chain so memory-centric retirement
	// is expressible; sources resolve through cur/host.
	local := map[*graph.Tensor]*graph.Tensor{}
	get := func(x *graph.Tensor) (*graph.Tensor, error) {
		if inst := local[x]; inst != nil {
			return inst, nil
		}
		if inst := rw.cur[x]; inst != nil {
			return inst, nil
		}
		if rw.host[x] != nil {
			rw.insertSwapIn(x)
			return rw.cur[x], nil
		}
		return nil, fmt.Errorf("core: rewrite: recompute source %s unavailable", x.Name)
	}
	for _, c := range chain {
		ins := make([]*graph.Tensor, 0, len(c.Inputs))
		for _, in := range c.Inputs {
			inst, err := get(in)
			if err != nil {
				return err
			}
			ins = append(ins, inst)
		}
		outs := make([]*graph.Tensor, 0, len(c.Outputs))
		for _, o := range c.Outputs {
			inst := rw.instance(o, o.Name+".rc")
			local[o] = inst
			outs = append(outs, inst)
		}
		rop := rw.ag.NewOp("rc."+c.Name, graph.Recompute, graph.Backward, ins, outs, c.Attrs)
		rop.FwdOp = c
		rop.Workspace = c.Workspace
		if anchor != nil {
			rop.ControlDeps = append(rop.ControlDeps, anchor)
			anchor = nil
		}
		rw.prev = rop
		rw.out.RecomputeOps++
	}
	rw.cur[t] = local[t]
	return nil
}

// cloneOp copies an unsplit operator with mapped inputs and fresh
// output instances.
func (rw *rewriter) cloneOp(op *graph.Op) error {
	ins := make([]*graph.Tensor, 0, len(op.Inputs))
	for _, in := range op.Inputs {
		inst, err := rw.mapInput(in)
		if err != nil {
			return err
		}
		ins = append(ins, inst)
	}
	outs := make([]*graph.Tensor, 0, len(op.Outputs))
	for _, o := range op.Outputs {
		inst := rw.instance(o, o.Name)
		rw.cur[o] = inst
		outs = append(outs, inst)
	}
	nop := rw.ag.NewOp(op.Name, op.Kind, op.Phase, ins, outs, op.Attrs)
	nop.FwdOp = op.FwdOp
	nop.Workspace = op.Workspace
	rw.out.OrigOf[nop] = op
	rw.prev = nop
	return nil
}

// applyEvictions inserts swap-outs / drops for tensors whose eviction
// point is schedule index i.
func (rw *rewriter) applyEvictions(i int) {
	for _, in := range rw.evictAgenda[i] {
		tp, ok := rw.plan.Tensor(in.ID)
		if !ok || rw.cur[in] == nil {
			continue
		}
		switch tp.Opt {
		case Swap:
			h := rw.ag.NewTensor(in.Name+".host", in.Shape, in.DType, tensor.HostCopy)
			op := rw.ag.NewOp("swapout."+in.Name, graph.SwapOut, graph.Forward,
				[]*graph.Tensor{rw.cur[in]}, []*graph.Tensor{h}, graph.Attrs{})
			op.ControlDeps = append(op.ControlDeps, rw.prev)
			rw.host[in] = h
			rw.cur[in] = nil
			rw.out.SwapOuts++
		case Recompute:
			rw.cur[in] = nil // dropped; regenerated on demand
		}
	}
}

// expandSplit rewrites one operator into p_num micro-operators with
// split and merge glue (paper Fig. 10).
func (rw *rewriter) expandSplit(op *graph.Op, sp OpSplit) error {
	in, out := SplitTensors(op, sp.Dim)
	if in == nil || out == nil {
		return rw.cloneOp(op)
	}
	axis := splitAxis(op, sp.Dim)
	inInst, err := rw.mapInput(in)
	if err != nil {
		return err
	}
	// Whole (unsplit) operands.
	whole := make(map[*graph.Tensor]*graph.Tensor, len(op.Inputs))
	for _, x := range op.Inputs {
		if x == in {
			continue
		}
		inst, err := rw.mapInput(x)
		if err != nil {
			return err
		}
		whole[x] = inst
	}

	inAxis := 0
	if sp.Dim == tensor.DimParam {
		inAxis = weightSplitAxis(op)
	}
	inShapes, err := tensor.Split(in.Shape, inAxis, sp.PNum)
	if err != nil {
		return rw.cloneOp(op)
	}
	outShapes, err := tensor.Split(out.Shape, axis, sp.PNum)
	if err != nil {
		return rw.cloneOp(op)
	}

	// Split operator carving the input (in place for the sample axis).
	microIns := make([]*graph.Tensor, sp.PNum)
	for k := range microIns {
		microIns[k] = rw.ag.NewTensor(fmt.Sprintf("%s.s%d", in.Name, k), inShapes[k], in.DType, in.Kind)
	}
	sop := rw.ag.NewOp("split."+in.Name, graph.SplitOp, op.Phase, []*graph.Tensor{inInst}, microIns, graph.Attrs{Axis: inAxis})
	sop.ControlDeps = append(sop.ControlDeps, rw.prev)
	rw.prev = sop
	rw.out.SplitOps++

	// Micro-operators. Reduction outputs (those not carved) get
	// per-micro partials merged by sum below.
	microOuts := make([]*graph.Tensor, sp.PNum)
	partials := map[*graph.Tensor][]*graph.Tensor{}
	for k := 0; k < sp.PNum; k++ {
		ins := make([]*graph.Tensor, 0, len(op.Inputs))
		for _, x := range op.Inputs {
			if x == in {
				ins = append(ins, microIns[k])
			} else {
				ins = append(ins, whole[x])
			}
		}
		outs := make([]*graph.Tensor, 0, len(op.Outputs))
		for _, o := range op.Outputs {
			if o == out {
				microOuts[k] = rw.ag.NewTensor(fmt.Sprintf("%s.s%d", o.Name, k), outShapes[k], o.DType, o.Kind)
				outs = append(outs, microOuts[k])
				continue
			}
			p := rw.ag.NewTensor(fmt.Sprintf("%s.p%d", o.Name, k), o.Shape, o.DType, o.Kind)
			partials[o] = append(partials[o], p)
			outs = append(outs, p)
		}
		mop := rw.ag.NewOp(fmt.Sprintf("%s.m%d", op.Name, k), op.Kind, op.Phase, ins, outs, op.Attrs)
		mop.FwdOp = op.FwdOp
		mop.Workspace = op.Workspace / int64(sp.PNum)
		rw.out.OrigOf[mop] = op
		rw.prev = mop

		// Micro-eviction: stream or drop the consumed input part.
		if sp.InOpt == Swap {
			h := rw.ag.NewTensor(fmt.Sprintf("%s.s%d.host", in.Name, k), inShapes[k], in.DType, tensor.HostCopy)
			so := rw.ag.NewOp(fmt.Sprintf("swapout.%s.s%d", in.Name, k), graph.SwapOut, op.Phase,
				[]*graph.Tensor{microIns[k]}, []*graph.Tensor{h}, graph.Attrs{})
			so.ControlDeps = append(so.ControlDeps, mop)
			rw.out.SwapOuts++
		}
		if sp.EarlyOut {
			h := rw.ag.NewTensor(fmt.Sprintf("%s.s%d.host", out.Name, k), outShapes[k], out.DType, tensor.HostCopy)
			so := rw.ag.NewOp(fmt.Sprintf("swapout.%s.s%d", out.Name, k), graph.SwapOut, op.Phase,
				[]*graph.Tensor{microOuts[k]}, []*graph.Tensor{h}, graph.Attrs{})
			so.ControlDeps = append(so.ControlDeps, mop)
			rw.out.SwapOuts++
		}
	}

	// Merge: concatenate the carved outputs; sum-reduce partials.
	outInst := rw.instance(out, out.Name)
	rw.cur[out] = outInst
	mergeOuts := []*graph.Tensor{outInst}
	mergeIns := append([]*graph.Tensor{}, microOuts...)
	for _, o := range op.Outputs {
		if o == out {
			continue
		}
		inst := rw.instance(o, o.Name)
		rw.cur[o] = inst
		mergeOuts = append(mergeOuts, inst)
		mergeIns = append(mergeIns, partials[o]...)
	}
	mg := rw.ag.NewOp("merge."+out.Name, graph.MergeOp, op.Phase, mergeIns, mergeOuts, graph.Attrs{Axis: axis})
	rw.prev = mg
	rw.out.MergeOps++

	// The split input has fully left the device when its micro-parts
	// were evicted.
	if sp.InOpt != Reside {
		if sp.InOpt == Swap {
			h := rw.ag.NewTensor(in.Name+".host", in.Shape, in.DType, tensor.HostCopy)
			rw.host[in] = h
			// Host micro-copies stand in for the merged host image; the
			// handle is produced by a zero-cost merge on the host side.
			hm := rw.ag.NewOp("hostmerge."+in.Name, graph.MergeOp, op.Phase, hostParts(rw.ag, in, sp.PNum), []*graph.Tensor{h}, graph.Attrs{Axis: inAxis})
			hm.ControlDeps = append(hm.ControlDeps, mg)
		}
		rw.cur[in] = nil
	}
	return nil
}

// hostParts finds the micro host handles just inserted for in.
func hostParts(ag *graph.Graph, in *graph.Tensor, pnum int) []*graph.Tensor {
	var parts []*graph.Tensor
	for i := len(ag.Tensors) - 1; i >= 0 && len(parts) < pnum; i-- {
		t := ag.Tensors[i]
		if t.Kind == tensor.HostCopy && t.Producer != nil && t.Producer.Kind == graph.SwapOut &&
			len(t.Name) > len(in.Name) && t.Name[:len(in.Name)] == in.Name {
			parts = append(parts, t)
		}
	}
	// Restore production order.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return parts
}

// weightSplitAxis is the carved axis of the weight operand for a
// parameter-dimension split.
func weightSplitAxis(op *graph.Op) int {
	if op.EffectiveKind() == graph.Conv2D {
		return 0 // OIHW output-channel axis
	}
	for _, t := range op.Inputs {
		if t.Kind == tensor.Parameter && t.Shape.Rank() >= 2 {
			return t.Shape.Rank() - 1
		}
	}
	return 0
}
