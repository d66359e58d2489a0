package core

import (
	"fmt"
	"sort"

	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/tensor"
)

// This file is the static plan-invariant verifier: an independent
// checker that a Plan — whichever policy produced it — respects the
// safety rules every consumer of a plan (the simulator, the augmented
// graph rewrite, a real framework integration) silently assumes. It is
// deliberately decoupled from the planner's own bookkeeping: the
// planner maintains these invariants incrementally for speed, the
// verifier re-derives them from scratch, so a bookkeeping bug in one
// cannot hide in the other.
//
// Invariants checked (names appear in Violation.Invariant):
//
//	capacity            the plan's memory curve stays under the ceiling
//	restore-before-use  no consumer runs while its input is evicted,
//	                    and swap prefetches fit the eviction window
//	split-balance       split decisions are internally consistent and
//	                    micro-restored tensors pair with their split
//	                    consumer in both directions
//	recompute-chain     every recompute decision can actually be
//	                    re-derived: chains bottom out at available
//	                    tensors, without cycles, within the chain cap
//	pool-offsets        the plan's residency spans replay through the
//	                    best-fit pool without overlapping allocations
//	plan-order          each decision list is in strictly ascending ID
//	                    order, one entry per ID
//
// A nil tensor or op in a decision list is reported under
// restore-before-use or split-balance, with the entry's position as
// subject.

// Violation is one broken plan invariant.
type Violation struct {
	// Invariant names the broken rule (see the package list above).
	Invariant string `json:"invariant"`
	// Subject is the tensor or op the violation is about.
	Subject string `json:"subject"`
	// Detail explains what was expected and what the plan says.
	Detail string `json:"detail"`
}

// String renders "invariant(subject): detail".
func (v Violation) String() string {
	return fmt.Sprintf("%s(%s): %s", v.Invariant, v.Subject, v.Detail)
}

// VerifyAt checks every plan invariant against the graph, its
// schedule/liveness pair and an explicit capacity ceiling in bytes (0
// disables the capacity check — useful for plans built for a
// deliberately infeasible budget), and returns the violations found
// (nil for a safe plan).
func VerifyAt(p *Plan, g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, capacity int64) []Violation {
	v := &verifier{p: p, g: g, sched: sched, lv: lv}
	// The other checks find entries by binary search, so they run on
	// well-formed lists only.
	if v.checkLists() {
		if v.indicesInRange() {
			// Curve indexes its delta array by the plan's schedule
			// positions; only replay plans whose windows stay on the
			// schedule (the window check below reports the out-of-range
			// entries).
			v.checkCapacity(capacity)
		}
		v.checkWindows()
		v.checkSplitBalance()
		v.checkRecomputeChains()
		v.checkPoolOffsets()
	}
	sort.Slice(v.out, func(i, j int) bool {
		a, b := v.out[i], v.out[j]
		if a.Invariant != b.Invariant {
			return a.Invariant < b.Invariant
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Detail < b.Detail
	})
	return v.out
}

type verifier struct {
	p     *Plan
	g     *graph.Graph
	sched *graph.Schedule
	lv    *graph.Liveness
	out   []Violation
}

func (v *verifier) addf(invariant, subject, format string, args ...any) {
	v.out = append(v.out, Violation{
		Invariant: invariant, Subject: subject,
		Detail: fmt.Sprintf(format, args...),
	})
}

// checkLists verifies the shape of the plan's two decision lists — no
// nil tensor or op, strictly ascending IDs — and reports whether both
// are well-formed.
func (v *verifier) checkLists() bool {
	tOK := checkList(v, v.p.Tensors, "Tensors", "restore-before-use", "plan entry has a nil tensor",
		func(tp TensorPlan) (int, string, bool) {
			if tp.Tensor == nil {
				return 0, "", false
			}
			return tp.Tensor.ID, tp.Tensor.Name, true
		})
	sOK := checkList(v, v.p.Splits, "Splits", "split-balance", "split entry has a nil op",
		func(sp OpSplit) (int, string, bool) {
			if sp.Op == nil {
				return 0, "", false
			}
			return sp.Op.ID, sp.Op.Name, true
		})
	return tOK && sOK
}

// checkList reports list's entries without a subject (under
// nilInvariant) and those out of strictly ascending ID order, where key
// gives an entry's ID and name or false when it has no subject, and
// reports whether the list is well-formed.
func checkList[T any](v *verifier, list []T, field, nilInvariant, nilDetail string, key func(T) (int, string, bool)) bool {
	ok, last := true, -1
	for k, e := range list {
		id, name, has := key(e)
		switch {
		case !has:
			v.addf(nilInvariant, fmt.Sprintf("%s[%d]", field, k), "%s", nilDetail)
		case id == last:
			v.addf("plan-order", name, "%s[%d] repeats ID %d", field, k, id)
		case id < last:
			v.addf("plan-order", name, "%s[%d] has ID %d after ID %d", field, k, id, last)
		default:
			last = id
			continue
		}
		ok = false
	}
	return ok
}

// indicesInRange reports whether every decided schedule position lies
// inside [0, n), which the memory simulation assumes.
func (v *verifier) indicesInRange() bool {
	n := len(v.sched.Ops)
	for _, tp := range v.p.Tensors {
		if tp.EvictAt >= n || tp.RestoreAt >= n || tp.PrefetchAt >= n {
			return false
		}
	}
	return true
}

// checkCapacity replays the plan through the memory simulation and
// compares the peak against the ceiling (paper Eq. 1's constraint).
func (v *verifier) checkCapacity(capacity int64) {
	if capacity <= 0 {
		return
	}
	ms := NewMemSim(v.g, v.sched, v.lv)
	_, peak, peakIdx := ms.Curve(v.p)
	if peak > capacity {
		v.addf("capacity", v.sched.Ops[peakIdx].Name,
			"plan needs %d bytes at schedule index %d, ceiling is %d (%.2f GiB over)",
			peak, peakIdx, capacity, float64(peak-capacity)/(1<<30))
	}
}

// checkWindows verifies every non-reside decision's schedule window:
// the tensor is evicted no earlier than its production, restored no
// later than its last use, never consumed while absent, and (for swap)
// the prefetch is issued inside the eviction gap.
func (v *verifier) checkWindows() {
	n := len(v.sched.Ops)
	for _, tp := range v.p.Tensors {
		t := tp.Tensor
		if tp.Opt == Reside {
			continue
		}
		name := t.Name
		first, last := v.lv.FirstUse[t], v.lv.LastUse[t]
		if tp.EvictAt < 0 || tp.EvictAt >= n {
			v.addf("restore-before-use", name, "EvictAt %d outside schedule [0,%d)", tp.EvictAt, n)
			continue
		}
		if first >= 0 && tp.EvictAt < first {
			v.addf("restore-before-use", name, "evicted at %d before production at %d", tp.EvictAt, first)
		}
		if tp.RestoreAt >= 0 {
			if tp.RestoreAt <= tp.EvictAt {
				v.addf("restore-before-use", name, "RestoreAt %d is not after EvictAt %d", tp.RestoreAt, tp.EvictAt)
			}
			if tp.RestoreAt > last {
				v.addf("restore-before-use", name, "RestoreAt %d is after the last use at %d", tp.RestoreAt, last)
			}
		}
		// No consumer may run inside the eviction gap (EvictAt, RestoreAt):
		// the tensor is on host (swap) or nonexistent (recompute) there.
		gapEnd := tp.RestoreAt
		if gapEnd < 0 {
			gapEnd = n // never restored: nothing may use it after eviction
		}
		for _, c := range t.Consumers {
			u := v.sched.Index[c]
			if u > tp.EvictAt && u < gapEnd {
				v.addf("restore-before-use", name,
					"consumer %s at index %d runs inside the eviction gap (%d, %d)",
					c.Name, u, tp.EvictAt, gapEnd)
			}
		}
		if tp.Opt == Swap && tp.MicroRestore <= 1 && tp.RestoreAt >= 0 {
			if tp.PrefetchAt <= tp.EvictAt || tp.PrefetchAt > tp.RestoreAt {
				v.addf("restore-before-use", name,
					"prefetch at %d outside the eviction window (%d, %d]",
					tp.PrefetchAt, tp.EvictAt, tp.RestoreAt)
			}
		}
	}
}

// checkSplitBalance verifies the two-way pairing between split
// decisions and micro-restored tensors: every OpSplit's MicroIns entry
// must be a swapped input of that op restored in exactly PNum
// micro-tensors at the op's own schedule position, and every tensor
// with MicroRestore > 1 must be claimed by exactly such a split.
func (v *verifier) checkSplitBalance() {
	// Forward direction: split decisions reference coherent tensors.
	claimed := map[int]int{} // tensor ID -> claiming op ID
	for _, sp := range v.p.Splits {
		op := sp.Op
		name := op.Name
		if sp.PNum < 2 {
			v.addf("split-balance", name, "p_num %d: a split needs at least 2 parts", sp.PNum)
		}
		if in, out := SplitTensors(op, sp.Dim); in == nil || out == nil {
			v.addf("split-balance", name, "op is not splittable along %s", sp.Dim)
		}
		if sp.In2 != nil && !op.HasInput(sp.In2) {
			v.addf("split-balance", name, "secondary input %s is not an input of the op", sp.In2.Name)
		}
		opIdx := v.sched.Index[op]
		for _, t := range sp.MicroIns {
			if !op.HasInput(t) {
				v.addf("split-balance", name, "micro-restored %s is not an input of the op", t.Name)
				continue
			}
			if prev, dup := claimed[t.ID]; dup {
				v.addf("split-balance", name,
					"micro-restored %s is already claimed by op #%d (one split consumer per tensor)", t.Name, prev)
				continue
			}
			claimed[t.ID] = op.ID
			tp, ok := v.p.Tensor(t.ID)
			switch {
			case !ok:
				v.addf("split-balance", name, "micro-restored %s has no plan entry", t.Name)
			case tp.Opt != Swap:
				v.addf("split-balance", name, "micro-restored %s is %s, want swap", t.Name, tp.Opt)
			case tp.MicroRestore != sp.PNum:
				v.addf("split-balance", name,
					"micro-restored %s restores in %d parts, split has p_num %d", t.Name, tp.MicroRestore, sp.PNum)
			case tp.RestoreAt != opIdx:
				v.addf("split-balance", name,
					"micro-restored %s restores at %d, split consumer runs at %d", t.Name, tp.RestoreAt, opIdx)
			}
		}
	}
	// Reverse direction: no orphan micro-restore decisions.
	for _, tp := range v.p.Tensors {
		if tp.MicroRestore <= 1 {
			continue
		}
		if _, ok := claimed[tp.Tensor.ID]; !ok {
			v.addf("split-balance", tp.Tensor.Name,
				"MicroRestore %d but no split consumer lists the tensor in MicroIns", tp.MicroRestore)
		}
	}
}

// checkRecomputeChains walks every recompute decision's regeneration
// subgraph: starting from the tensor's producer, each input must be
// available at RestoreAt or itself regenerable. The walk refuses
// cycles (tensor regeneration depending on itself through other
// recompute decisions) and chains longer than the schedule.
func (v *verifier) checkRecomputeChains() {
	onStack := map[int]bool{} // op IDs on the current DFS path
	for _, tp := range v.p.Tensors {
		if tp.Opt != Recompute {
			continue
		}
		count := 0
		// resolved memoizes op IDs already validated at this restore
		// index: regeneration subgraphs are DAGs with heavy sharing
		// (inception cells, residual blocks), and an unmemoized walk
		// revisits the shared prefix once per path — exponentially.
		resolved := map[int]bool{}
		v.walkChain(tp.Tensor, tp.Tensor, tp.RestoreAt, onStack, resolved, &count)
	}
}

// walkChain recursively validates that x can be materialized at
// backward index r while regenerating target. Violations are recorded
// rather than returned so one broken chain reports every defect.
func (v *verifier) walkChain(x, target *graph.Tensor, r int, onStack, resolved map[int]bool, count *int) {
	p := x.Producer
	if p == nil {
		v.addf("recompute-chain", target.Name,
			"chain needs %s, which has no producer and is not available at index %d", x.Name, r)
		return
	}
	if resolved[p.ID] {
		return
	}
	if onStack[p.ID] {
		v.addf("recompute-chain", target.Name,
			"regeneration cycle through op %s (recompute decisions depend on each other)", p.Name)
		return
	}
	*count++
	if *count > len(v.sched.Ops) {
		v.addf("recompute-chain", target.Name, "chain exceeds the schedule length (%d ops)", len(v.sched.Ops))
		return
	}
	onStack[p.ID] = true
	for _, in := range p.Inputs {
		if v.availableAt(in, r) {
			continue
		}
		v.walkChain(in, target, r, onStack, resolved, count)
	}
	delete(onStack, p.ID)
	resolved[p.ID] = true
}

// availableAt reports whether tensor t is *recoverable* at backward
// index r without re-running its producer: on device, on host (swap or
// staged), or permanently resident. This is deliberately looser than
// the planner's cost predicate (availQuery.Avail), which also rejects
// recoverable-but-expensive sources — the verifier checks safety, not
// optimality: a chain is only broken when a dependency is irrecoverably
// gone.
func (v *verifier) availableAt(t *graph.Tensor, r int) bool {
	switch t.Kind {
	case tensor.Parameter, tensor.OptState, tensor.Input:
		// Host- or device-resident for the whole iteration (sharded and
		// offloaded variants keep a host master copy to stage from).
		return true
	case tensor.FeatureMap:
		tp, ok := v.p.Tensor(t.ID)
		if !ok || tp.Opt == Reside {
			return v.lv.FirstUse[t] <= r && r <= v.lv.LastUse[t]
		}
		if tp.Opt == Swap {
			// On device until EvictAt, on host after; the host copy is
			// released with the tensor's last use.
			return r <= v.lv.LastUse[t]
		}
		return false // Recompute: regenerate via the caller's recursion
	default:
		return false
	}
}

// checkPoolOffsets replays the plan's device-residency spans through a
// fresh best-fit pool over an unbounded arena — every span allocates at
// its start index and frees after its end — then audits the pool's
// internal structures and independently cross-checks that no two
// blocks overlap while both live. A failure here means the plan's
// alloc/free pattern corrupts the allocator (double free, overlapping
// residency bookkeeping), which the capacity check alone cannot see.
func (v *verifier) checkPoolOffsets() {
	ms := NewMemSim(v.g, v.sched, v.lv)
	n := len(v.sched.Ops)

	type ev struct {
		t     *graph.Tensor
		bytes int64
		a, b  int // inclusive residency interval
	}
	var spans []ev
	var arena int64
	for _, t := range v.g.Tensors {
		tp, _ := v.p.Tensor(t.ID)
		for _, iv := range ms.residencyInto(t, v.p, tp, nil) {
			if iv.a > iv.b || iv.a < 0 || iv.b >= n {
				v.addf("pool-offsets", t.Name, "residency span [%d,%d] outside schedule [0,%d)", iv.a, iv.b, n)
				continue
			}
			spans = append(spans, ev{t, iv.bytes, iv.a, iv.b})
			arena += alignUp(iv.bytes)
		}
	}
	if arena == 0 {
		return
	}

	pool := memorypool.New(arena+memorypool.Alignment, memorypool.BestFit)
	type live struct {
		blk memorypool.Block
		ev  ev
	}
	allocAt := make([][]int, n+1) // span indices to allocate entering index i
	freeAt := make([][]int, n+1)  // span indices to free entering index i
	for i, s := range spans {
		allocAt[s.a] = append(allocAt[s.a], i)
		freeAt[s.b+1] = append(freeAt[s.b+1], i)
	}
	blocks := make([]live, len(spans))
	active := map[int]bool{}
	for i := 0; i <= n; i++ {
		for _, si := range freeAt[i] {
			if !active[si] {
				continue
			}
			pool.FreeBlock(blocks[si].blk)
			delete(active, si)
		}
		for _, si := range allocAt[i] {
			blk, err := pool.Alloc(spans[si].bytes)
			if err != nil {
				// The arena covers the sum of all spans, so an OOM here is
				// an allocator-state corruption, not a capacity problem.
				v.addf("pool-offsets", spans[si].t.Name, "replay allocation failed at index %d: %v", i, pool.OOMError(spans[si].bytes))
				continue
			}
			blocks[si] = live{blk, spans[si]}
			active[si] = true
		}
		if err := pool.CheckInvariants(); err != nil {
			v.addf("pool-offsets", v.sched.Ops[min(i, n-1)].Name, "pool corrupt at index %d: %v", i, err)
			return
		}
		// Independent overlap audit over the live set, sorted by offset.
		ids := make([]int, 0, len(active))
		for si := range active {
			ids = append(ids, si)
		}
		sort.Ints(ids)
		sort.SliceStable(ids, func(a, b int) bool {
			return pool.OffsetOf(blocks[ids[a]].blk) < pool.OffsetOf(blocks[ids[b]].blk)
		})
		for k := 1; k < len(ids); k++ {
			prev, cur := blocks[ids[k-1]], blocks[ids[k]]
			po, co := pool.OffsetOf(prev.blk), pool.OffsetOf(cur.blk)
			if po+prev.blk.Size > co {
				v.addf("pool-offsets", cur.ev.t.Name,
					"block [%d,%d) overlaps %s's block [%d,%d) at index %d",
					co, co+cur.blk.Size, prev.ev.t.Name, po, po+prev.blk.Size, i)
			}
		}
	}
}

func alignUp(n int64) int64 {
	if n <= 0 {
		return memorypool.Alignment
	}
	return (n + memorypool.Alignment - 1) &^ (memorypool.Alignment - 1)
}
