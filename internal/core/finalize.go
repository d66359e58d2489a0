package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"tsplit/internal/graph"
	"tsplit/internal/profiler"
)

// finalizeScratch is FinalizeWindows' working storage: the occupancy
// tracker, the use points, the chain sources' availability and the
// chain walker. Calls borrow one from finalizers, so a sweep's
// baseline plans stop allocating it.
type finalizeScratch struct {
	occ    *profiler.Occupancy
	points []int
	until  []int
	w      ChainWalker
}

var finalizers = sync.Pool{New: func() any { return new(finalizeScratch) }}

// occupancy returns an empty tracker for prof: the scratch's own,
// retargeted (a profile may also have been refreshed in place since),
// or a new one.
func (fs *finalizeScratch) occupancy(prof *profiler.Profile) *profiler.Occupancy {
	if fs.occ == nil {
		fs.occ = profiler.NewOccupancy(prof)
	} else {
		fs.occ.Retarget(prof)
	}
	return fs.occ
}

// FinalizeWindows fills in the eviction/restore/prefetch schedule
// positions for every planned tensor whose producer only chose a
// memory option — the baseline planners (vDNN, Checkpoints,
// SuperNeurons, the offload baselines) decide *what* to evict by
// static rules, and this shared pass derives *when*, using the same
// occupancy simulation as TSPLIT's planner so the comparison is about
// policy, not plumbing.
//
// The eviction window is the largest gap between consecutive uses of
// the tensor in the schedule — for feature maps that is exactly the
// forward-to-backward gap the out-of-core literature exploits.
//
// The producer may append its decisions in any order and repeat a
// tensor: FinalizeWindows leaves plan.Tensors in ID order, one entry
// (the first) per tensor, in the list's own array. It builds
// plan.ChainTransients in st's storage (see PlanStore), or in a new
// array when st is nil; a producer that built plan.Tensors in st
// passes the same st.
func FinalizeWindows(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, prof *profiler.Profile, plan *Plan, st *PlanStore) {
	fs := finalizers.Get().(*finalizeScratch)
	defer finalizers.Put(fs)
	occ := fs.occupancy(prof)

	// Process in production order so swap-out bandwidth is booked in
	// the order the runtime will issue the copies, the tensors of a
	// multi-output op (one FirstUse) in ID order. The sort is stable, so
	// a repeated tensor keeps its first entry.
	slices.SortStableFunc(plan.Tensors, func(a, b TensorPlan) int {
		return cmp.Or(cmp.Compare(lv.FirstUse[a.Tensor], lv.FirstUse[b.Tensor]), cmp.Compare(a.Tensor.ID, b.Tensor.ID))
	})
	plan.Tensors = slices.CompactFunc(plan.Tensors, func(a, b TensorPlan) bool { return a.Tensor.ID == b.Tensor.ID })

	points := fs.points[:0] // production point, then the uses; one buffer for the whole call
	for i := range plan.Tensors {
		tp := &plan.Tensors[i]
		t := tp.Tensor
		prod := lv.FirstUse[t]
		if prod < 0 {
			prod = 0
		}
		points = appendUses(append(points[:0], prod), t, sched)

		evictAt, restoreAt, gap := -1, -1, 0
		for k := 0; k+1 < len(points); k++ {
			if g := points[k+1] - points[k]; g > gap {
				gap = g
				evictAt, restoreAt = points[k], points[k+1]
			}
		}
		if restoreAt == -1 || gap < 2 {
			// No gap worth evicting across: drop the decision (the
			// filter below removes the entry).
			tp.Tensor = nil
			continue
		}
		tp.EvictAt = evictAt
		tp.RestoreAt = restoreAt
		tp.PrefetchAt = restoreAt
		if tp.Opt == Swap {
			transfer := prof.TransferTime(t.Bytes())
			occ.Reserve(transfer, evictAt+1, restoreAt-1)
			start, leftover := occ.ReserveBack(transfer, evictAt+1, restoreAt-1)
			if leftover > 0 {
				start = prof.WindowStart(restoreAt, transfer)
				if start <= evictAt {
					start = evictAt + 1
				}
			}
			tp.PrefetchAt = start
		}
	}
	fs.points = points
	plan.Tensors = slices.DeleteFunc(plan.Tensors, func(tp TensorPlan) bool { return tp.Tensor == nil })
	slices.SortFunc(plan.Tensors, func(a, b TensorPlan) int { return cmp.Compare(a.Tensor.ID, b.Tensor.ID) })
	if len(plan.Tensors) == 0 {
		plan.Tensors = nil // an empty list is nil, as in every other plan
	}

	// Derive recompute-chain transients against the finalized plan. The
	// runtime holds a regeneration's intermediates until the whole chain
	// has re-executed, so the memory curve must charge their sum (plus
	// the widest chain workspace) at the restoring consumer — without
	// this the curve under-predicts deep-chain policies (sqrt(N)
	// checkpointing) by the size of a whole segment. Availability is
	// judged at the consumer's schedule position: a chain source is only
	// on device there if it has not been dropped by its own eviction
	// window (recompute decisions) or refcount-freed after its last
	// scheduled use — by late backward, residuals force chains across
	// whole stages. An op's restorations run sequentially and each
	// chain's intermediates are retired before the next starts, so the
	// per-index charge is the maximum over that op's chains, recorded in
	// plan.ChainTransients. (The TSPLIT planner instead maintains
	// per-tensor ChainBytes estimates for the shallow chains it creates.)
	var chainT []int64
	w := &fs.w           // the scratch's walker; its visited set grows on first use
	var q finalizedAvail // q.until is built at the first recompute decision
	for _, tp := range plan.Tensors {
		if tp.Opt != Recompute || tp.ChainBytes > 0 {
			continue
		}
		if q.until == nil {
			fs.until = availableUntil(fs.until, g, lv, plan)
			q.until = fs.until
		}
		for _, c := range tp.Tensor.Consumers {
			u := sched.Index[c]
			if u < tp.RestoreAt {
				continue
			}
			q.u = u
			chain, err := walkChain(w, tp.Tensor, q, len(g.Ops), nil)
			if err != nil {
				continue // the verifier reports unrecoverable chains
			}
			var sum, ws int64
			for _, op := range chain {
				if op.Workspace > ws {
					ws = op.Workspace
				}
				for _, o := range op.Outputs {
					if o != tp.Tensor {
						sum += o.Bytes()
					}
				}
			}
			if b := sum + ws; b > 0 {
				if chainT == nil {
					chainT = st.chainTransients(len(sched.Ops))
				}
				if b > chainT[u] {
					chainT[u] = b
				}
			}
		}
	}
	plan.ChainTransients = chainT
}

// finalizedAvail is chain-source availability under a finalized plan
// at consumer position u.
type finalizedAvail struct {
	until []int // by tensor ID, from availableUntil
	u     int
}

func (q finalizedAvail) Avail(x *graph.Tensor) bool { return q.until[x.ID] >= q.u }

// availableUntil returns, by tensor ID, the last schedule position at
// which a finalized plan still has the tensor on device: a
// recompute-planned tensor until its own eviction point, anything
// else until its last scheduled use (forever when it has none). It
// fills dst's storage when it is large enough.
func availableUntil(dst []int, g *graph.Graph, lv *graph.Liveness, plan *Plan) []int {
	until := slices.Grow(dst[:0], len(g.Tensors))[:len(g.Tensors)] // a tensor's ID is its index in g.Tensors
	for _, t := range g.Tensors {
		until[t.ID] = lv.LastUse[t]
		if until[t.ID] < 0 {
			until[t.ID] = math.MaxInt
		}
	}
	for _, tp := range plan.Tensors {
		if tp.Opt == Recompute {
			until[tp.Tensor.ID] = tp.EvictAt
		}
	}
	return until
}
