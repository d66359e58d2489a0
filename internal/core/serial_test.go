package core

import (
	"fmt"
	"math"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// The serial reference planner: the greedy loop of paper Algorithm 2
// as written — a full chain refresh, a full memory-curve rebuild, a
// front-to-back bottleneck scan and a full candidate rescan on every
// iteration. It shares the commit path and the scoring arithmetic with
// Plan() but none of the incremental machinery (memory curve,
// candidate index and its chain registry), so byte-identical plans
// from the two are an end-to-end check of that machinery
// (TestPlannerSerialParallelEquivalence).

// planSerial is Plan() with greedySerial in place of greedyIncremental.
// The serial loop never touches the incremental curve, so every tensor
// and op is re-applied to it before finishRun, whose early-out pass and
// final peak read the curve; the peak is then checked against a
// from-scratch MemSim rebuild.
func (pl *Planner) planSerial() (*Plan, error) {
	pl.beginRun()
	err := pl.greedySerial()
	for _, t := range pl.G.Tensors {
		pl.curve.update(t, pl.tensor(t.ID))
	}
	for i, op := range pl.Sched.Ops {
		var sp OpSplit
		if pl.spSet[op.ID] {
			sp = pl.splits[op.ID]
		}
		pl.curve.setAdj(i, opFootprintAdjustment(op, sp))
	}
	plan, err := pl.finishRun(err, nil)
	if err != nil {
		return plan, err
	}
	if _, peak, _ := pl.ms.Curve(plan); peak != plan.PredictedPeak {
		return plan, fmt.Errorf("serial reference: curve peak %d, rebuilt peak %d", plan.PredictedPeak, peak)
	}
	return plan, nil
}

// greedySerial is the reference greedy loop: full chain refresh, full
// curve rebuild, front-to-back bottleneck scan, and a full candidate
// rescan, every iteration. Byte-identical plans from the incremental
// loop are the correctness bar (TestPlannerSerialParallelEquivalence).
func (pl *Planner) greedySerial() error {
	capB := pl.Opts.Capacity
	for iter := 0; ; iter++ {
		if iter >= maxIterations {
			pl.countFailure("nonconverged")
			return fmt.Errorf("core: planning did not converge in %d iterations", iter)
		}
		rederived := pl.refreshChains()
		pl.draft.writeTo(pl.plan, nil)
		memAt, peak, _ := pl.ms.Curve(pl.plan)
		pl.statRederived += int64(rederived)
		if skipped := len(pl.recomputeIDs) - rederived; skipped > 0 {
			pl.statSkipped += int64(skipped)
		}
		if pl.report != nil {
			// The scan that follows a commit reveals its effect: fill
			// the previous decision's PeakAfter now.
			if n := len(pl.report.Decisions); n > 0 {
				pl.report.Decisions[n-1].PeakAfter = peak
			} else {
				pl.report.InitialPeakBytes = peak
			}
		}
		if peak <= capB {
			return nil
		}
		// First bottleneck position (Algorithm 2 walks the schedule).
		bsp := pl.runSpan.StartSpan("planner.bottleneck")
		i := 0
		for ; i < len(memAt); i++ {
			if memAt[i] > capB {
				break
			}
		}
		bsp.End()
		fsp := pl.runSpan.StartSpan("planner.fold")
		best, scored := pl.bestCandidate(i)
		fsp.End()
		pl.statCands += int64(scored)
		if best == nil {
			pl.countFailure("infeasible")
			return fmt.Errorf("%w (bottleneck at op %d %s: need %.1f MiB over capacity)",
				ErrInfeasible, i, pl.Sched.Ops[i], float64(memAt[i]-capB)/(1<<20))
		}
		pl.statIters++
		if pl.report != nil {
			pl.report.Decisions = append(pl.report.Decisions,
				pl.decisionRecord(iter, i, memAt[i]-capB, peak, scored, rederived, best))
		}
		pl.applyCandidate(best)
		pl.recordDecisionEvent(iter, i, best)
		pl.extraTime += best.deltaT
	}
}

// refreshChains recomputes the transient-memory estimate of every
// recompute decision against the *current* plan: a chain recorded
// earlier may have grown because a tensor it sourced from was itself
// evicted by a later decision. This is the serial reference;
// refreshChainsDirty (incremental.go) re-derives only affected chains.
// It returns the number of chains re-derived (here: all of them).
func (pl *Planner) refreshChains() int {
	n := 0
	for id, planned := range pl.tpSet {
		tp := pl.tplans[id]
		if !planned || tp.Opt != Recompute {
			continue
		}
		n++
		chain, err := walkChain(pl.walker, tp.Tensor, availQuery{pl, tp.RestoreAt}, len(pl.G.Ops), nil)
		if err != nil {
			continue
		}
		tp.ChainBytes = chainTransientBytes(chain, tp.Tensor)
		pl.putTensor(id, tp)
	}
	return n
}

// bestCandidate is the serial reference scorer: it rescans Step 1
// (swap/recompute of every live tensor) and Step 2 (split of ops in
// the bottleneck's lookahead window) from scratch and returns the
// winner of Step 3 plus the number of viable candidates scored. The
// incremental path prices the same pool through candIndex and must
// fold in this exact task order.
func (pl *Planner) bestCandidate(i int) (*candidate, int) {
	nT := len(pl.G.Tensors)
	nS := 0
	if !pl.Opts.DisableSplit {
		last := i + pl.Opts.SplitLookahead
		if last > len(pl.Sched.Ops)-1 {
			last = len(pl.Sched.Ops) - 1
		}
		if last >= i {
			nS = last - i + 1
		}
	}
	total := nT + nS
	cands := make([]candidate, total)
	for k := 0; k < total; k++ {
		if k < nT {
			pl.scoreEvictInto(pl.G.Tensors[k], i, &cands[k], pl.walker)
		} else {
			pl.scoreSplitInto(i+(k-nT), &cands[k], pl.walker)
		}
	}
	var best *candidate
	viable := 0
	for k := range cands {
		if c := &cands[k]; c.valid {
			viable++
			if pl.better(c, best) {
				best = c
			}
		}
	}
	return best, viable
}

// better is the serial oracle's own restatement of betterKey over
// full candidates, kept independent so the key fold is checked against
// it rather than against itself.
func (pl *Planner) better(a, b *candidate) bool {
	if b == nil {
		return true
	}
	if pl.Opts.PreferLargest {
		if a.deltaM != b.deltaM {
			return a.deltaM > b.deltaM
		}
		return a.genIdx < b.genIdx
	}
	const tieAbs = 1e-16
	lo, hi := a.ratio, b.ratio
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo > tieAbs && lo < 0.99*hi {
		return a.ratio < b.ratio
	}
	if pl.Opts.DisableGenTieBreak {
		return a.ratio < b.ratio
	}
	return a.genIdx < b.genIdx
}

// scoreEvictInto scores swap vs recompute for one live tensor at
// bottleneck i (paper Eqs. 2-5) into c, leaving c invalid when t is
// not a candidate.
func (pl *Planner) scoreEvictInto(t *graph.Tensor, i int, c *candidate, wk *ChainWalker) {
	c.valid = false
	if !t.Kind.Evictable() {
		return
	}
	if pl.tpSet[t.ID] {
		return
	}
	evictAt, restoreAt, ok := pl.evictionWindowFast(t, i)
	if !ok {
		return
	}
	size := t.Bytes()
	transfer := pl.Prof.TransferTime(size)

	// Swap (Eq. 3): unhidden transfer time out (between the tensor's
	// last use and the bottleneck) plus in (between the bottleneck and
	// the restoring consumer).
	stallOut := pl.occ.Stall(transfer, evictAt+1, i-1)
	stallIn := pl.occ.Stall(transfer, i, restoreAt-1)
	swapT := stallOut + stallIn

	// Recompute (Eq. 5): chain cost per backward consumer
	// (memory-centric strategy).
	recompT := math.Inf(1)
	var chainBytes int64
	if t.Kind == tensor.FeatureMap && !pl.Opts.DisableRecompute {
		if chain, err := walkChain(wk, t, availQuery{pl, restoreAt}, maxRecomputeChain, nil); err == nil {
			recompT = pl.chainCostFast(chain) * float64(pl.backwardUsesFast(t, restoreAt))
			chainBytes = chainTransientBytes(chain, t)
		}
	}

	opt, dT := Swap, swapT
	if recompT < swapT {
		opt, dT = Recompute, recompT
	}
	// Tensors whose restoring consumer is splittable can later be
	// streamed back at micro-tensor granularity (their swap-in memory
	// shrinks to size/p), which recompute cannot match: keep them
	// swappable unless recompute is far cheaper.
	if opt == Recompute && swapT <= 4*recompT+1e-6 && pl.microRestorable(t, restoreAt) {
		opt, dT = Swap, swapT
	}
	gen := pl.firstOf[t.ID]
	if gen < 0 {
		gen = 0
	}
	*c = candidate{
		valid:      true,
		ratio:      dT / float64(size),
		deltaT:     dT,
		deltaM:     size,
		genIdx:     gen,
		pos:        i,
		evictAt:    evictAt,
		restoreAt:  restoreAt,
		t:          t,
		opt:        opt,
		transfer:   transfer,
		stallOut:   stallOut,
		chainBytes: chainBytes,
	}
}

// scoreSplitInto scores splitting the operator at schedule position j
// jointly with a memory option for its input micro-tensors (paper
// Eq. 6), searching p_num and the split dimension, into c. An operator
// that is already split may be upgraded to a larger p_num with the
// same dimension and input option when the bottleneck persists.
func (pl *Planner) scoreSplitInto(j int, c *candidate, wk *ChainWalker) {
	c.valid = false
	op := pl.Sched.Ops[j]
	cur, has := pl.splits[op.ID], pl.spSet[op.ID]
	var best *candidate
	var tmp candidate
	var curOpt [1]MemOpt
	for _, dim := range splitDimsSearched {
		if has && dim != cur.Dim {
			continue
		}
		in, out := SplitTensors(op, dim)
		if in == nil {
			continue
		}
		axis := 0
		if dim == tensor.DimParam {
			axis = 0 // weight's output axis is axis 0 (OIHW) / last (matmul): extent check below
			if op.Kind != graph.Conv2D && in.Shape.Rank() >= 2 {
				axis = in.Shape.Rank() - 1
			}
		}
		maxP := tensor.MaxSplit(in.Shape, axis)
		inOpts := pl.splitInOpts(in, dim, j)
		if has {
			curOpt[0] = cur.InOpt
			inOpts = curOpt[:]
		}
		for _, pnum := range pl.Opts.PNums {
			if pnum < 2 || pnum > maxP || (has && pnum <= cur.PNum) {
				continue
			}
			for _, inOpt := range inOpts {
				if pl.scoreSplitConfigInto(op, j, in, out, dim, pnum, inOpt, has, &cur, &tmp, wk) && pl.better(&tmp, best) {
					*c = tmp
					best = c
				}
			}
		}
	}
}

// scoreSplitConfigInto prices one (op, p_num, dim, inOpt)
// configuration into c, measuring ΔM relative to the op's current
// (possibly already split) footprint. It reports whether the
// configuration is a viable candidate.
func (pl *Planner) scoreSplitConfigInto(op *graph.Op, i int, in, out *graph.Tensor, dim tensor.SplitDim, pnum int, inOpt MemOpt, has bool, cur *OpSplit, c *candidate, wk *ChainWalker) bool {
	inB, outB := in.Bytes(), out.Bytes()
	in2 := pl.carvableSecondInput(op, in, out, dim, i)

	newSplit := OpSplit{Op: op, PNum: pnum, Dim: dim, InOpt: inOpt, In2: in2}
	curAdj := op.Workspace
	baseT := pl.Prof.T[i]
	if has {
		curAdj = splitAdjustment(op, *cur)
		_, baseT = pl.Prof.Cost.SplitTimes(op, cur.PNum)
	}

	// Micro-granular swap-in: swapped inputs restored exactly for this
	// operator can be streamed back one micro-tensor at a time, so only
	// size/p re-occupies the device (joint split+swap optimization).
	var microIns []*graph.Tensor
	var microB int64
	if dim == tensor.DimSample {
		for _, t := range op.Inputs {
			tp, planned := pl.tplans[t.ID], pl.tpSet[t.ID]
			if !planned || tp.Opt != Swap || tp.MicroRestore > 1 || tp.RestoreAt != i {
				continue
			}
			if t.Shape.Rank() < 1 || t.Shape[0] != op.Outputs[0].Shape[0] {
				continue
			}
			if pl.lastOf[t.ID] != i {
				continue // another consumer still needs it whole
			}
			microIns = append(microIns, t)
			microB += t.Bytes()
		}
	}

	newSplit.MicroIns = microIns
	deltaM := curAdj - splitAdjustment(op, newSplit)
	// Micro-restored inputs shrink from full size to size/p on the
	// device (they were previously charged whole from their prefetch).
	deltaM += microB - microB/int64(pnum)
	if deltaM <= 0 {
		return false
	}

	// Time cost (Eq. 6): kernel degradation + merge copy + micro
	// eviction costs.
	_, totalSplit := pl.Prof.Cost.SplitTimes(op, pnum)
	deltaT := totalSplit - baseT
	if deltaT < 0 {
		deltaT = 0
	}
	if op.EffectiveKind() == graph.BatchNorm {
		// Micro-tensor batch normalization needs a second pass to
		// finalize the batch statistics before normalizing.
		deltaT += float64(inB) / pl.Dev.MemBandwidth
	}
	if microB > 0 {
		// Streaming restores hide under the micro-operators; the
		// un-hidden remainder stalls.
		transfer := pl.Prof.TransferTime(microB)
		hide := totalSplit * float64(pnum-1) / float64(pnum)
		if stall := transfer - hide; stall > 0 {
			deltaT += stall
		}
	}
	// Merge of the output micro-tensors for the (unsplit) consumer; a
	// sample-axis carve of the input is an in-place view and free.
	if !has {
		deltaT += float64(outB) / pl.Dev.MemBandwidth
		if dim == tensor.DimParam {
			deltaT += float64(inB) / pl.Dev.MemBandwidth // strided weight carve
		}
	}

	evictAt, restoreAt := i, -1
	switch {
	case has:
		// Upgrade: the input's eviction (if any) was priced and
		// committed with the original split decision.
	case inOpt == Swap:
		transfer := pl.Prof.TransferTime(inB)
		_, restoreAt, _ = pl.evictionWindowAfterFast(in, i)
		if restoreAt < 0 {
			return false
		}
		// Micro swap-outs overlap the remaining micro-operators.
		hide := totalSplit * float64(pnum-1) / float64(pnum)
		if stall := transfer - hide; stall > 0 {
			deltaT += stall
		}
		deltaT += pl.occ.Stall(transfer, i+1, restoreAt-1)
	case inOpt == Recompute:
		_, restoreAt, _ = pl.evictionWindowAfterFast(in, i)
		if restoreAt >= 0 {
			chain, err := walkChain(wk, in, availQuery{pl, restoreAt}, maxRecomputeChain, nil)
			if err != nil {
				return false
			}
			deltaT += pl.chainCostFast(chain) * float64(pl.backwardUsesFast(in, restoreAt))
		}
		// restoreAt == -1: the input dies here; micro-tensors are
		// simply freed as consumed, no regeneration ever needed.
	}

	gen := pl.firstOf[in.ID]
	if gen < 0 {
		gen = 0
	}
	*c = candidate{
		valid:     true,
		isSplit:   true,
		ratio:     deltaT / float64(deltaM),
		deltaT:    deltaT,
		deltaM:    deltaM,
		genIdx:    gen,
		pos:       i,
		evictAt:   evictAt,
		restoreAt: restoreAt,
		split:     newSplit,
		splitNew:  !has,
		in:        in,
		inOpt:     inOpt,
	}
	return true
}
