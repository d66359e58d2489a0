package core

import (
	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// MemSim evaluates the per-operation device memory requirement of a
// schedule under a plan — the M_i - ΔM_i(C) term of paper Eq. 1. It is
// the planner's inner feasibility oracle and is also used to produce
// the memory-timeline figures (paper Fig. 2(a), Fig. 4(b)).
type MemSim struct {
	G     *graph.Graph
	Sched *graph.Schedule
	Lv    *graph.Liveness
	// ID-indexed mirrors of Lv.FirstUse/Lv.LastUse/Sched.Index: the
	// residency derivation runs once per tensor per committed decision
	// on the incremental planner's hot path, and the pointer-keyed map
	// lookups dominate it.
	firstOf []int
	lastOf  []int
	opPos   []int
}

// NewMemSim builds the simulator from a graph and its schedule.
func NewMemSim(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness) *MemSim {
	ms := &MemSim{
		G: g, Sched: sched, Lv: lv,
		firstOf: make([]int, len(g.Tensors)),
		lastOf:  make([]int, len(g.Tensors)),
		opPos:   make([]int, len(g.Ops)),
	}
	for _, t := range g.Tensors {
		ms.firstOf[t.ID] = lv.FirstUse[t]
		ms.lastOf[t.ID] = lv.LastUse[t]
	}
	for i, op := range sched.Ops {
		ms.opPos[op.ID] = i
	}
	return ms
}

// span is one device-residency interval of a tensor with the bytes it
// occupies there (micro-restored tensors occupy a fraction).
type span struct {
	a, b  int
	bytes int64
}

// residencyInto appends the device-residency spans of tensor t to buf
// — a caller-owned buffer, so the incremental memory curve can
// re-derive a tensor's spans without allocating (see chargesInto) —
// under the plan's offload options and t's decision tp (the zero
// TensorPlan when it has none). Most tensors have one span; evicted
// tensors have two (before eviction, after restore); sharded
// parameters have one per consumer.
func (ms *MemSim) residencyInto(t *graph.Tensor, p *Plan, tp TensorPlan, buf []span) []span {
	n := len(ms.Sched.Ops)
	first := ms.firstOf[t.ID]
	last := ms.lastOf[t.ID]
	if first == -1 {
		first = 0
		last = n - 1
	}

	b := t.Bytes()

	// Offload-baseline special cases (ZeRO-Offload, FairScale-Offload).
	switch t.Kind {
	case tensor.OptState:
		if p.OffloadOptimizer {
			return buf // lives in host memory; updates run on CPU
		}
	case tensor.ParamGrad:
		if p.OffloadOptimizer {
			// Streamed to host as soon as produced.
			prod := ms.firstOf[t.ID]
			if prod >= 0 {
				return append(buf, span{prod, prod, b})
			}
			return buf
		}
	case tensor.Parameter:
		if p.ShardParams {
			// Staged in right before each consumer and evicted after.
			base := len(buf)
			for _, c := range t.Consumers {
				i := ms.opPos[c.ID]
				a := i - 1
				if a < 0 {
					a = 0
				}
				if k := len(buf); k > base && buf[k-1].b >= a-1 {
					buf[k-1].b = i
					continue
				}
				buf = append(buf, span{a, i, b})
			}
			return buf
		}
	}

	if tp.Opt == Reside {
		return append(buf, span{first, last, b})
	}
	// Evicted after EvictAt; back on device from the prefetch (swap) or
	// the restoring consumer (recompute) to the last use.
	buf = append(buf, span{first, tp.EvictAt, b})
	if tp.RestoreAt >= 0 && tp.RestoreAt <= last {
		back := tp.RestoreAt
		if tp.Opt == Swap && tp.PrefetchAt >= 0 && tp.PrefetchAt < back {
			back = tp.PrefetchAt
		}
		if back <= tp.EvictAt {
			back = tp.EvictAt + 1
		}
		restored := b
		if tp.MicroRestore > 1 {
			// Streamed into its split consumer one micro-tensor at a
			// time: only a fraction is ever resident again.
			restored = b / int64(tp.MicroRestore)
			back = tp.RestoreAt // no whole-tensor prefetch window
		}
		if back <= last {
			buf = append(buf, span{back, last, restored})
		}
	}
	return buf
}

// chargesInto appends everything tensor t charges to the memory curve
// under the plan: its residency spans plus, for a recompute decision
// with a transient estimate, a one-index span at every backward
// consumer, where the chain re-runs and its intermediates occupy the
// device. Curve and the planner's incremental memCurve both charge
// through it; p and tp are as for residencyInto.
func (ms *MemSim) chargesInto(t *graph.Tensor, p *Plan, tp TensorPlan, buf []span) []span {
	buf = ms.residencyInto(t, p, tp, buf)
	if tp.Opt == Recompute && tp.ChainBytes > 0 {
		for _, c := range t.Consumers {
			if u := ms.opPos[c.ID]; u >= tp.RestoreAt {
				buf = append(buf, span{u, u, tp.ChainBytes})
			}
		}
	}
	return buf
}

// Curve returns the memory requirement at every schedule index under
// the plan, the peak, and its index.
func (ms *MemSim) Curve(p *Plan) (memAt []int64, peak int64, peakIdx int) {
	n := len(ms.Sched.Ops)
	delta := make([]int64, n+1)
	var spans []span
	for _, t := range ms.G.Tensors {
		tp, _ := p.Tensor(t.ID)
		spans = ms.chargesInto(t, p, tp, spans[:0])
		for _, iv := range spans {
			delta[iv.a] += iv.bytes
			delta[iv.b+1] -= iv.bytes
		}
	}
	memAt = make([]int64, n)
	var run int64
	for i := 0; i < n; i++ {
		run += delta[i]
		sp, _ := p.SplitFor(ms.Sched.Ops[i])
		memAt[i] = run + opFootprintAdjustment(ms.Sched.Ops[i], sp)
		if p.ChainTransients != nil {
			memAt[i] += p.ChainTransients[i]
		}
		if memAt[i] > peak {
			peak = memAt[i]
			peakIdx = i
		}
	}
	return memAt, peak, peakIdx
}

// opFootprintAdjustment returns the op's own execution footprint on
// top of the interval-based live set under its split decision sp: the
// full workspace when unsplit (the zero OpSplit), or the reduced split
// footprint delta when the op is split.
func opFootprintAdjustment(op *graph.Op, sp OpSplit) int64 {
	if sp.Op == nil {
		return op.Workspace
	}
	return splitAdjustment(op, sp)
}

// splitAdjustment computes the footprint delta of executing op under a
// split configuration, relative to the interval accounting that has
// already charged the full inputs and outputs as live.
//
// The worst micro-step k needs: (p-k+1)/p of the carved input(s) (when
// input micro-tensors are evicted as consumed), k/p of the carved
// output (micro-outputs accumulate until the merge), the full size of
// any reduction outputs (e.g. the weight-gradient accumulator of a
// sample-split convolution backward), and 1/p of the workspace. The
// adjustment is that maximum minus the full charges it replaces.
//
// The maximum over k is taken at the two end steps only, which is
// exact: every step is ⌊A(p−k+1)/p⌋ + ⌊Ck/p⌋ plus terms that are
// constant or added at k = p, that sum is at most ⌊g(k)⌋ for the
// linear g(k) = (A(p−k+1) + Ck)/p, and ⌊g⌋ equals the step at k = 1
// and at k = p (DESIGN.md §7).
func splitAdjustment(op *graph.Op, sp OpSplit) int64 {
	in, out := SplitTensors(op, sp.Dim)
	if in == nil || out == nil {
		return op.Workspace
	}
	inB := in.Bytes()
	if sp.In2 != nil {
		inB += sp.In2.Bytes()
	}
	carvedB := out.Bytes()
	pn := int64(sp.PNum)
	ws := op.Workspace / pn
	mode := MergeModeFor(op, sp)
	peakStep := max(splitStep(1, pn, inB, carvedB, sp.InOpt, mode), splitStep(pn, pn, inB, carvedB, sp.InOpt, mode))
	return peakStep + ws - inB - carvedB
}

// splitStep is the carved bytes resident during micro-step k of pn.
func splitStep(k, pn, inB, carvedB int64, inOpt MemOpt, mode MergeMode) int64 {
	step := inB
	if inOpt != Reside {
		step = inB * (pn - k + 1) / pn
	}
	switch mode {
	case MergeRestoreInPlace:
		// The output region doubles as the restore slots: full
		// size from the start, but nothing else.
		return step + carvedB
	case MergePhysical:
		if k == pn {
			// A physical merge briefly needs the output twice.
			step += carvedB
		}
	}
	return step + carvedB*k/pn
}

// MergeMode describes how the split runtime reassembles the output
// micro-tensors.
type MergeMode int

const (
	// MergePhysical copies the scattered micro-outputs into a fresh
	// full-size block (transiently 2× output).
	MergePhysical MergeMode = iota
	// MergeCarveInPlace stages each micro-output into the just-freed
	// slot of the carved (discarded) input — paper Fig. 8's memory
	// reuse between inputs and outputs. Requires immediate input frees
	// and output ≤ input.
	MergeCarveInPlace
	// MergeRestoreInPlace streams a same-size micro-restored input
	// through the output region itself: slice k of the saved tensor is
	// staged into slot k, consumed, and overwritten by micro-output k.
	// The classic case is a backward operator whose dX has exactly the
	// shape of its saved X.
	MergeRestoreInPlace
)

// MergeModeFor classifies the split configuration.
func MergeModeFor(op *graph.Op, sp OpSplit) MergeMode {
	in, out := SplitTensors(op, sp.Dim)
	if in == nil || out == nil {
		return MergePhysical
	}
	if sp.InOpt == Recompute && out.Bytes() <= in.Bytes() {
		return MergeCarveInPlace
	}
	for _, t := range sp.MicroIns {
		if t.Bytes() == out.Bytes() {
			return MergeRestoreInPlace
		}
	}
	return MergePhysical
}

// RestoreStageTensor returns the micro-restored input whose slices
// share the output region under MergeRestoreInPlace.
func RestoreStageTensor(op *graph.Op, sp OpSplit) *graph.Tensor {
	_, out := SplitTensors(op, sp.Dim)
	if out == nil {
		return nil
	}
	for _, t := range sp.MicroIns {
		if t.Bytes() == out.Bytes() {
			return t
		}
	}
	return nil
}
