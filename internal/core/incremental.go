package core

import (
	"errors"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// This file holds the planner's incremental machinery: a memory curve
// kept live across greedy iterations (only the tensors and ops touched
// by the committed decision are re-applied, instead of re-walking every
// tensor as MemSim.Curve does), a resumable first-over-capacity scan,
// the re-derivation of committed recompute chains that the candidate
// index's dependency registry marked stale (candindex.go), and a
// reusable chain walker that scoring can run without per-call
// allocations. The serial reference planner in the package tests
// bypasses all of it and the two must produce byte-identical plans — see
// TestPlannerSerialParallelEquivalence and
// TestIncrementalCurveMatchesFullRebuild.
//
// Everything here is pooled: a planner can Reset() and re-Plan()
// without reallocating any of it (see arena lifecycle, DESIGN.md §7).

// curveBlockShift sizes the memory curve's block decomposition (32
// slots): a span update costs O(B + span/B) and the first-over-capacity
// scan skips whole under-capacity blocks in O(1) each. Small blocks
// favor the many short write-through edges over the rarer full scans.
const curveBlockShift = 5

// memCurve maintains MemSim.Curve's M_i array incrementally, block
// decomposed: the true memory at op u is memAt[u] + blockAdd[u>>shift].
// A tensor's residency spans and chain-transient charges are applied as
// range adds — written through at the partial edge blocks, folded into
// blockAdd for fully covered blocks — so a commit costs O(B + span/B)
// instead of an O(n) prefix-sum rebuild, and rawMax (the per-block max
// of memAt, excluding blockAdd) lets the bottleneck search skip whole
// blocks that cannot be over capacity. All arithmetic is int64, so the
// decomposition is exact: regrouping integer additions cannot change
// any value (TestIncrementalCurveMatchesFullRebuild pins this against
// the from-scratch rebuild).
//
// applied remembers, per tensor ID, the spans currently charged so a
// plan change can subtract exactly what was added; adj carries the
// per-schedule-index op footprint adjustment (workspace, or the split
// footprint delta), folded directly into memAt.
type memCurve struct {
	ms *MemSim
	// plan supplies the plan-wide offload options; update hands in the
	// decisions.
	plan *Plan
	n    int
	// memAt[u] + blockAdd[u>>curveBlockShift] is the memory in use
	// while op u executes.
	memAt    []int64
	blockAdd []int64
	// rawMax[b] is an UPPER BOUND on max(memAt[u]) over block b (the
	// block's true max is bounded by rawMax[b] + blockAdd[b]): additions
	// raise it exactly in O(1), subtractions leave it stale rather than
	// pay an O(B) recompute per span edge. An overestimate only costs
	// the bottleneck search a wasted block walk (it checks exact values
	// inside); it can never hide a bottleneck or inflate the reported
	// peak, because scan() recomputes the bound exactly and the search
	// re-tightens any block it walks in full.
	rawMax []int64
	adj    []int64
	// applied[id] is the span set currently charged for tensor id; its
	// backing array is reused across updates and across Plan() calls.
	applied [][]span

	// Pristine (empty-plan) snapshot for O(n) reset between Plan()
	// calls on a pooled planner. It holds for one set of tensor sizes
	// — the owner sets stale when they change — and one
	// OffloadOptimizer setting, which moves optimizer state and
	// parameter gradients off the device even in an empty plan.
	memAt0   []int64
	rawMax0  []int64
	adj0     []int64
	stale    bool
	offload0 bool
	// delta is derive's scratch: alloc/free transitions by position.
	delta []int64
	// changedIDs lists tensors whose applied spans diverged from the
	// pristine state since the last reset.
	changedIDs  []int32
	changedMark []bool

	// minInc is the lowest index where memory may have *increased*
	// since the last bottleneck search returned — the resume point of
	// the first-over-capacity scan. Decreases (the usual effect of a
	// committed decision) cannot push an earlier position over capacity,
	// so the search may skip everything below min(prevBottleneck,
	// minInc).
	minInc int
}

// newMemCurve sizes a curve for the schedule. The first reset derives
// it.
func newMemCurve(ms *MemSim) *memCurve {
	n, nT := len(ms.Sched.Ops), len(ms.G.Tensors)
	nBlocks := (n + (1 << curveBlockShift) - 1) >> curveBlockShift
	return &memCurve{
		ms: ms, n: n,
		memAt:       make([]int64, n),
		blockAdd:    make([]int64, nBlocks),
		rawMax:      make([]int64, nBlocks),
		adj:         make([]int64, n),
		applied:     make([][]span, nT),
		changedMark: make([]bool, nT),
		memAt0:      make([]int64, n),
		rawMax0:     make([]int64, nBlocks),
		adj0:        make([]int64, n),
		delta:       make([]int64, n+1),
		stale:       true,
	}
}

// reset brings the curve to the empty plan, under p's offload
// options, for a new Plan() call.
// While the pristine snapshot holds, the materialized arrays are
// copied back and only tensors whose spans diverged get their applied
// set recomputed (under the new, empty plan) into their existing
// backing arrays; otherwise derive rebuilds everything.
func (c *memCurve) reset(p *Plan) {
	c.plan = p
	if c.stale || c.offload0 != p.OffloadOptimizer {
		c.derive()
		return
	}
	copy(c.memAt, c.memAt0)
	copy(c.rawMax, c.rawMax0)
	copy(c.adj, c.adj0)
	for b := range c.blockAdd {
		c.blockAdd[b] = 0
	}
	for _, id := range c.changedIDs {
		c.changedMark[id] = false
		t := c.ms.G.Tensors[id]
		c.applied[id] = c.ms.chargesInto(t, c.plan, TensorPlan{}, c.applied[id][:0])
	}
	c.changedIDs = c.changedIDs[:0]
	c.minInc = c.n + 1
}

// derive builds the curve for the empty plan (every tensor resident,
// every op unsplit) in one full pass — the only full pass the
// incremental path ever performs — and snapshots it as the pristine
// state.
func (c *memCurve) derive() {
	for i, op := range c.ms.Sched.Ops {
		c.adj[i] = op.Workspace
	}
	clear(c.delta)
	for _, t := range c.ms.G.Tensors {
		spans := c.ms.chargesInto(t, c.plan, TensorPlan{}, c.applied[t.ID][:0])
		for _, iv := range spans {
			c.delta[iv.a] += iv.bytes
			c.delta[iv.b+1] -= iv.bytes
		}
		c.applied[t.ID] = spans
	}
	var run int64
	for u := 0; u < c.n; u++ {
		run += c.delta[u]
		c.memAt[u] = run + c.adj[u]
	}
	clear(c.blockAdd)
	for b := range c.rawMax {
		c.fixMax(b)
	}
	for _, id := range c.changedIDs {
		c.changedMark[id] = false
	}
	c.changedIDs = c.changedIDs[:0]
	copy(c.memAt0, c.memAt)
	copy(c.rawMax0, c.rawMax)
	copy(c.adj0, c.adj)
	c.stale, c.offload0 = false, c.plan.OffloadOptimizer
	c.minInc = c.n + 1
}

// blockEnd returns the last schedule index block b covers.
func (c *memCurve) blockEnd(b int) int {
	end := (b+1)<<curveBlockShift - 1
	if end >= c.n {
		end = c.n - 1
	}
	return end
}

// fixMax recomputes rawMax[b] exactly.
func (c *memCurve) fixMax(b int) {
	lo, hi := b<<curveBlockShift, c.blockEnd(b)
	m := c.memAt[lo]
	for u := lo + 1; u <= hi; u++ {
		if c.memAt[u] > m {
			m = c.memAt[u]
		}
	}
	c.rawMax[b] = m
}

// writeThrough adds v to memAt over [lo, hi] within block blk,
// maintaining the rawMax upper bound: additions raise it to cover the
// new values; subtractions leave it stale (still an upper bound).
func (c *memCurve) writeThrough(blk, lo, hi int, v int64) {
	if v > 0 {
		m := c.rawMax[blk]
		for u := lo; u <= hi; u++ {
			c.memAt[u] += v
			if c.memAt[u] > m {
				m = c.memAt[u]
			}
		}
		c.rawMax[blk] = m
		return
	}
	for u := lo; u <= hi; u++ {
		c.memAt[u] += v
	}
}

// rangeAdd adds v to the true curve over [a, b]: write-through on the
// partial edge blocks, blockAdd on fully covered ones.
func (c *memCurve) rangeAdd(a, b int, v int64) {
	if v == 0 || a > b {
		return
	}
	if v > 0 && a < c.minInc {
		c.minInc = a
	}
	ba, bb := a>>curveBlockShift, b>>curveBlockShift
	if ba == bb {
		if a == ba<<curveBlockShift && b == c.blockEnd(ba) {
			c.blockAdd[ba] += v
			return
		}
		c.writeThrough(ba, a, b, v)
		return
	}
	if a == ba<<curveBlockShift {
		c.blockAdd[ba] += v
	} else {
		c.writeThrough(ba, a, c.blockEnd(ba), v)
	}
	for blk := ba + 1; blk < bb; blk++ {
		c.blockAdd[blk] += v
	}
	if b == c.blockEnd(bb) {
		c.blockAdd[bb] += v
	} else {
		c.writeThrough(bb, bb<<curveBlockShift, b, v)
	}
}

// update re-derives t's contributions after its plan entry changed to
// tp (the zero TensorPlan: none), subtracting the previously applied
// spans first. The old span set is read out before its backing array
// is reused for the new one.
func (c *memCurve) update(t *graph.Tensor, tp TensorPlan) {
	id := t.ID
	if !c.changedMark[id] {
		c.changedMark[id] = true
		c.changedIDs = append(c.changedIDs, int32(id))
	}
	old := c.applied[id]
	for _, iv := range old {
		c.rangeAdd(iv.a, iv.b, -iv.bytes)
	}
	spans := c.ms.chargesInto(t, c.plan, tp, old[:0])
	for _, iv := range spans {
		// rangeAdd tracks minInc: added spans are where memory can
		// increase.
		c.rangeAdd(iv.a, iv.b, iv.bytes)
	}
	c.applied[id] = spans
}

// setAdj replaces the footprint adjustment of schedule index i (after
// a split decision changed the op's execution footprint).
func (c *memCurve) setAdj(i int, v int64) {
	if v == c.adj[i] {
		return
	}
	d := v - c.adj[i]
	c.adj[i] = v
	c.rangeAdd(i, i, d)
}

// scan materializes the curve (blockAdd pushed down into memAt) and
// returns it with its peak. The returned slice is owned by the curve
// and valid until the next mutation.
func (c *memCurve) scan() (memAt []int64, peak int64, peakIdx int) {
	for b := range c.blockAdd {
		if add := c.blockAdd[b]; add != 0 {
			for u, end := b<<curveBlockShift, c.blockEnd(b); u <= end; u++ {
				c.memAt[u] += add
			}
			c.blockAdd[b] = 0
		}
		// rawMax is only an upper bound after subtractions; the peak
		// must be exact, so re-tighten every block here (one O(n) pass,
		// the same cost the materialize itself pays).
		c.fixMax(b)
	}
	peakBlk := 0
	for b, m := range c.rawMax {
		if m > peak {
			peak = m
			peakBlk = b
		}
	}
	for u, end := peakBlk<<curveBlockShift, c.blockEnd(peakBlk); u <= end; u++ {
		if c.memAt[u] == peak {
			peakIdx = u
			break
		}
	}
	c.minInc = c.n + 1
	return c.memAt, peak, peakIdx
}

// bottleneck finds the first schedule index over cap, resuming the
// search from min(prevBtl, minInc): every position below that bound
// was at or under cap when the previous bottleneck was returned and
// cannot have grown since (decreases never create earlier bottlenecks;
// increases are tracked by minInc). Blocks whose true max is at or
// under cap are skipped in O(1) via rawMax + blockAdd, so an iteration
// pays O(n/B) plus one block walk instead of an O(n) rescan. Exactness
// against the full front-to-back scan is pinned by
// TestBottleneckResumeMatchesFullScan.
func (c *memCurve) bottleneck(cap int64, prevBtl int) (i int, memAtI int64, found bool) {
	s := prevBtl
	if c.minInc < s {
		s = c.minInc
	}
	if s < 0 {
		s = 0
	}
	nBlocks := len(c.blockAdd)
	for blk := s >> curveBlockShift; blk < nBlocks; blk++ {
		add := c.blockAdd[blk]
		if c.rawMax[blk]+add <= cap {
			continue
		}
		lo := blk << curveBlockShift
		if lo < s {
			lo = s
			for u, end := lo, c.blockEnd(blk); u <= end; u++ {
				if c.memAt[u]+add > cap {
					c.minInc = c.n + 1
					return u, c.memAt[u] + add, true
				}
			}
			// The block's max sits below s — positions the resume
			// invariant already cleared — so the search continues.
			continue
		}
		// Full-block walk with no hit: every slot was visited, so
		// re-tighten the stale rawMax upper bound for free.
		m := c.memAt[lo]
		for u, end := lo, c.blockEnd(blk); u <= end; u++ {
			if c.memAt[u]+add > cap {
				c.minInc = c.n + 1
				return u, c.memAt[u] + add, true
			}
			if c.memAt[u] > m {
				m = c.memAt[u]
			}
		}
		c.rawMax[blk] = m
	}
	c.minInc = c.n + 1
	return 0, 0, false
}

// availQuery is the allocation-free equivalent of availFn: the
// availability predicate for recompute chains under plan p at backward
// index r, answering from the planner's ID-indexed liveness arrays.
type availQuery struct {
	pl *Planner
	r  int
}

func (q availQuery) Avail(t *graph.Tensor) bool {
	pl := q.pl
	switch t.Kind {
	case tensor.Parameter, tensor.OptState:
		return !pl.plan.ShardParams
	case tensor.Input:
		if pl.tpSet[t.ID] {
			if tp := &pl.tplans[t.ID]; tp.Opt != Reside {
				return tp.Opt == Swap && tp.MicroRestore <= 1 && tp.RestoreAt <= q.r
			}
		}
		return true
	case tensor.FeatureMap:
		if !pl.tpSet[t.ID] || pl.tplans[t.ID].Opt == Reside {
			return pl.firstOf[t.ID] <= q.r && q.r <= pl.lastOf[t.ID]
		}
		// A micro-restored tensor only ever returns in fragments
		// streamed into its split consumer; chains may not pull it
		// back whole.
		tp := &pl.tplans[t.ID]
		return tp.Opt == Swap && tp.MicroRestore <= 1 && tp.RestoreAt <= q.r && q.r <= pl.lastOf[t.ID]
	default:
		return false
	}
}

// Walk failures are sentinel errors: scoring probes thousands of
// infeasible chains per plan and a formatted error per probe would
// dominate the allocation budget. Inside the planner the outcome is
// only a feasibility verdict; WalkChain turns the sentinels into its
// quoted messages from the walker's failed field.
var (
	errChainNoProducer = errors.New("core: recompute source has no producer and is not available")
	errChainTooLong    = errors.New("core: recompute chain exceeds the op limit")
)

// ChainAvail is the availability predicate of one chain walk: whether
// a chain source is on device where the chain runs. It is a type
// parameter rather than a func value so that each caller's query is a
// plain struct and a walk allocates no closure.
type ChainAvail interface {
	Avail(*graph.Tensor) bool
}

// ChainWalker is the one recompute-chain walker: the planner's
// scoring, FinalizeWindows, RecomputeChain and the simulator's
// regeneration all derive chains through it. The visited set is an
// epoch-stamped array indexed by op ID and the chain slice is
// recycled, so a walk allocates nothing; scoring runs hundreds of
// thousands of walks per plan. The zero value is ready to use.
type ChainWalker struct {
	seen   []int
	epoch  int
	chain  []*graph.Op
	count  int
	failed *graph.Tensor // the producer-less source of the last errChainNoProducer
}

// newChainWalker sizes the visited set for nOps op IDs; a walk that
// meets a larger ID grows it.
func newChainWalker(nOps int) *ChainWalker {
	return &ChainWalker{seen: make([]int, nOps)}
}

// walkChain is WalkChain with the planner's sentinel errors. When
// touched is non-nil, the ID of every tensor whose availability was
// queried is appended to it (possibly with duplicates) — the
// dependency set of the derivation.
func walkChain[Q ChainAvail](w *ChainWalker, t *graph.Tensor, q Q, maxLen int, touched *[]int32) ([]*graph.Op, error) {
	w.epoch++
	w.chain = w.chain[:0]
	w.count = 0
	if err := visitChain(w, t, q, maxLen, touched); err != nil {
		return nil, err
	}
	return w.chain, nil
}

func visitChain[Q ChainAvail](w *ChainWalker, x *graph.Tensor, q Q, maxLen int, touched *[]int32) error {
	p := x.Producer
	if p == nil {
		w.failed = x
		return errChainNoProducer
	}
	if p.ID >= len(w.seen) {
		w.seen = append(w.seen, make([]int, p.ID+1-len(w.seen))...)
	}
	if w.seen[p.ID] == w.epoch {
		return nil
	}
	w.seen[p.ID] = w.epoch
	w.count++
	if w.count > maxLen {
		return errChainTooLong
	}
	for _, in := range p.Inputs {
		if touched != nil {
			*touched = append(*touched, int32(in.ID))
		}
		if q.Avail(in) {
			continue
		}
		if err := visitChain(w, in, q, maxLen, touched); err != nil {
			return err
		}
	}
	w.chain = append(w.chain, p)
	return nil
}

// planDelta lists the tensors and ops whose plan entries a committed
// candidate changed — the exact set the incremental structures must
// re-apply. The backing arrays live on the planner and are reused.
type planDelta struct {
	tensors []*graph.Tensor
	ops     []*graph.Op
}

// noteChanges propagates a committed decision into the incremental
// state: changed tensors are re-applied to the curve and handed to the
// candidate index, which drops everything the commit could have
// re-priced and marks stale every chain that queried them, committed
// recompute chains included; a tensor that now holds a recompute
// decision is marked for (re-)derivation so its dependency set
// registers; changed ops get their footprint adjustment recomputed.
func (pl *Planner) noteChanges(d planDelta) {
	for _, t := range d.tensors {
		pl.curve.update(t, pl.tensor(t.ID))
		pl.ci.noteTensorPlanChanged(t.ID)
		if pl.tpSet[t.ID] && pl.tplans[t.ID].Opt == Recompute {
			pl.ci.chainStale[t.ID] = true
		}
	}
	for _, op := range d.ops {
		pl.curve.setAdj(pl.opPos[op.ID], opFootprintAdjustment(op, pl.splits[op.ID]))
		pl.ci.noteSplitChanged(pl.opPos[op.ID])
	}
}

// refreshChainsDirty is the incremental counterpart of refreshChains:
// it re-derives only the committed recompute chains marked stale since
// the last iteration — a chain whose queried dependencies are
// untouched would re-derive identically, so skipping it cannot diverge
// from the serial full refresh. A committed chain is registered in the
// candidate index's reverse dependency registry under its tensor's ID,
// which a planned tensor no longer uses as a candidate, so the index's
// invalidation marks it exactly as it marks a candidate's chain. Chains
// are re-derived in ascending ID order (recomputeIDs): each walk is
// independent, but curve.update touches shared state. It returns the
// number of chains re-derived — planner introspection reports it
// against the committed count to quantify the incremental saving.
func (pl *Planner) refreshChainsDirty() int {
	ci := pl.ci
	rederived := 0
	for _, id32 := range pl.recomputeIDs {
		id := int(id32)
		if !ci.chainStale[id] {
			continue
		}
		ci.chainStale[id] = false
		ci.depEpoch[id]++
		rederived++
		tp := pl.tplans[id]
		pl.touchScratch = pl.touchScratch[:0]
		chain, err := walkChain(pl.walker, tp.Tensor, availQuery{pl, tp.RestoreAt}, len(pl.G.Ops), &pl.touchScratch)
		ci.registerDeps(id32, pl.touchScratch)
		if err != nil {
			continue // as refreshChains: keep the last estimate
		}
		if nb := chainTransientBytes(chain, tp.Tensor); nb != tp.ChainBytes {
			tp.ChainBytes = nb
			pl.putTensor(id, tp)
			pl.curve.update(tp.Tensor, tp)
		}
	}
	return rederived
}
