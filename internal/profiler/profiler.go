// Package profiler produces the per-operation execution profile that
// TSPLIT's planner consumes (paper Sec. V-B). The real system measures
// each operator once with cudaEvent timers while monopolizing the GPU;
// our oracle is the analytic cost model, which plays the same role:
// a deterministic map from operator to execution time, plus transfer
// times derived from full PCIe bandwidth, plus the simulated per-op
// PCIe occupancy array Oc_u the planner keeps while placing swaps.
package profiler

import (
	"tsplit/internal/costmodel"
	"tsplit/internal/device"
	"tsplit/internal/graph"
)

// Profile is the execution profile of one schedule on one device.
type Profile struct {
	Dev   device.Device
	Cost  *costmodel.Model
	Sched *graph.Schedule
	// T[i] is the profiled execution time of schedule op i in seconds.
	T []float64
	// cum[i] is the prefix sum T[0]+...+T[i-1].
	cum []float64
}

// New profiles every operator of the schedule on the device.
func New(dev device.Device, sched *graph.Schedule) *Profile {
	p := &Profile{
		Dev:   dev,
		Cost:  costmodel.New(dev),
		Sched: sched,
		T:     make([]float64, len(sched.Ops)),
		cum:   make([]float64, len(sched.Ops)+1),
	}
	p.Refresh()
	return p
}

// Refresh profiles every operator again, in place: the schedule's
// graph was rebatched (graph.Template.Rebatch), which changes its
// operators' sizes but not the schedule.
func (p *Profile) Refresh() {
	for i, op := range p.Sched.Ops {
		p.T[i] = p.Cost.OpTime(op)
		p.cum[i+1] = p.cum[i] + p.T[i]
	}
}

// Total returns the profiled iteration time with no memory management
// (the paper's T = Σ T_i).
func (p *Profile) Total() float64 { return p.cum[len(p.cum)-1] }

// Span returns Σ T_u for u in [from, to]; empty ranges return 0.
func (p *Profile) Span(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to >= len(p.T) {
		to = len(p.T) - 1
	}
	if from > to {
		return 0
	}
	return p.cum[to+1] - p.cum[from]
}

// TransferTime is the PCIe copy time for bytes at full bandwidth.
func (p *Profile) TransferTime(bytes int64) float64 {
	return p.Cost.TransferTime(bytes)
}

// WindowStart returns the largest index s ≤ q-1 such that the
// wall-clock span Σ T_u for u in [s, q-1] still covers dur — i.e. the
// latest point a copy of duration dur can be issued and finish by q
// even with no spare bandwidth (the compute stream will stall for the
// unhidden part, but device memory is only occupied from s).
func (p *Profile) WindowStart(q int, dur float64) int {
	lo, hi := 0, q-1
	if hi < 0 {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.Span(mid, q-1) >= dur {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Occupancy tracks the fraction of each operator's execution during
// which one PCIe direction is already reserved by planned swaps — the
// Oc_u array of paper Eq. 3/4 ("we keep an array to simulate and store
// the status of each Op"). Directions are tracked independently
// because PCIe is full duplex and the runtime uses separate D2H and
// H2D streams.
type Occupancy struct {
	prof *Profile
	// oc[u] in [0,1]: reserved fraction of op u's duration.
	oc []float64
	// The free-time prefix sums are block-decomposed so a reservation
	// only invalidates the blocks it modified, not an O(n) suffix: a
	// greedy planner reserves at early schedule indices every
	// iteration, and a flat prefix-sum array would pay a full rebuild
	// per decision. inner[u] is the free-time prefix within u's block
	// (through u inclusive); blockCum[b] is the total free time of
	// blocks before b. A query is then blockCum[u>>shift] + inner[u] —
	// still O(1) — while a rebuild after k modified slots costs
	// O(k·B + n/B).
	inner    []float64
	blockCum []float64
	dirty    []bool
	anyDirty bool
	// full[b] counts the slots of block b that can never yield free
	// time again: oc clamped to exactly 1, or T == 0. When it reaches
	// the block's size, Reserve/ReserveBack hop the whole block instead
	// of walking it slot by slot — the greedy planner saturates the
	// early schedule first, and every later front-loaded reservation
	// re-walks that saturated prefix. Counting only exact-1 slots keeps
	// the skip behavior-preserving: a skipped slot's free time is
	// exactly (1-1)·T = 0, so the walk body would have been a no-op.
	full []int16
	// invT[u] = 1/T[u] (0 for zero-duration ops): fill() books
	// fractions with a multiply instead of a divide, which dominates
	// its cost on the reserve hot path.
	invT []float64
}

// occBlockShift sizes the decomposition blocks (64 slots): rebuild
// cost per decision is ~B + n/B, minimized near √n for the schedule
// lengths the planner sees (10²–10⁴ ops). Smaller blocks also let the
// saturation skip in Reserve/ReserveBack engage sooner.
const occBlockShift = 6

// NewOccupancy creates an empty tracker for the profile.
func NewOccupancy(p *Profile) *Occupancy {
	o := &Occupancy{prof: p, oc: make([]float64, len(p.T)), invT: make([]float64, len(p.T))}
	o.Retime()
	return o
}

// Retarget points the tracker at another profile and clears every
// reservation, as NewOccupancy(p) would build it, inside the tracker's
// own arrays: a pooled tracker follows the workloads its owner plans.
func (o *Occupancy) Retarget(p *Profile) {
	o.prof = p
	if n := len(p.T); n != len(o.oc) {
		nBlocks := (n + (1 << occBlockShift) - 1) >> occBlockShift
		o.oc, o.invT = resize(o.oc, n), resize(o.invT, n)
		if o.full != nil {
			o.full = resize(o.full, nBlocks)
		}
		if o.inner != nil {
			o.inner, o.blockCum, o.dirty = resize(o.inner, n), resize(o.blockCum, nBlocks+1), resize(o.dirty, nBlocks)
		}
	}
	o.Retime()
}

// resize returns s at length n, reusing its array when it is large
// enough; the caller overwrites every element.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Clone copies the tracker (the planner snapshots candidates).
func (o *Occupancy) Clone() *Occupancy {
	c := &Occupancy{prof: o.prof, oc: make([]float64, len(o.oc))}
	copy(c.oc, o.oc)
	c.full = append([]int16(nil), o.full...)
	c.invT = append([]float64(nil), o.invT...) // Retime rewrites o's in place
	return c
}

// Retime re-reads the profile's operator times, after Profile.Refresh,
// and clears every reservation.
func (o *Occupancy) Retime() {
	for u, t := range o.prof.T {
		o.invT[u] = 0
		if t > 0 {
			o.invT[u] = 1 / t
		}
	}
	o.Reset()
}

// Reset clears every reservation so a pooled planner can reuse the
// tracker across Plan() calls without reallocating.
func (o *Occupancy) Reset() {
	for u := range o.oc {
		o.oc[u] = 0
	}
	o.resetFull()
	o.markAllDirty()
}

// resetFull recounts the permanently-free-less slots per block: with
// no reservations those are exactly the zero-duration ops.
func (o *Occupancy) resetFull() {
	n := len(o.oc)
	nBlocks := (n + (1 << occBlockShift) - 1) >> occBlockShift
	if o.full == nil {
		o.full = make([]int16, nBlocks)
	}
	for b := range o.full {
		o.full[b] = 0
	}
	for u, t := range o.prof.T {
		if t == 0 {
			o.full[u>>occBlockShift]++
		}
	}
}

// blockSize returns the number of slots block b covers.
func (o *Occupancy) blockSize(b int) int16 {
	size := len(o.oc) - b<<occBlockShift
	if size > 1<<occBlockShift {
		size = 1 << occBlockShift
	}
	return int16(size)
}

// fill books take seconds into slot u (take < free, T[u] > 0),
// maintaining the saturation count.
func (o *Occupancy) fill(u int, take float64) {
	o.oc[u] += take * o.invT[u]
	if o.oc[u] >= 1 {
		o.oc[u] = 1
		o.full[u>>occBlockShift]++
	}
	o.touch(u)
}

// saturate books a slot's entire remaining free time: oc lands on
// exactly 1, not 1−ε — rounding take/T would leave a vanishing sliver
// of free time that keeps the slot (and its block) off the saturation
// skip forever, so every later reservation would re-walk the fully
// booked prefix slot by slot.
func (o *Occupancy) saturate(u int) {
	if o.oc[u] < 1 {
		o.oc[u] = 1
		o.full[u>>occBlockShift]++
	}
	o.touch(u)
}

func (o *Occupancy) markAllDirty() {
	for b := range o.dirty {
		o.dirty[b] = true
	}
	o.anyDirty = true
}

// touch marks index u's block dirty.
func (o *Occupancy) touch(u int) {
	if o.dirty != nil {
		o.dirty[u>>occBlockShift] = true
	}
	o.anyDirty = true
}

// Mean returns the time-weighted mean reservation Σ oc_u·T_u / Σ T_u —
// how loaded the planner left the PCIe link across the iteration.
func (o *Occupancy) Mean() float64 {
	total := o.prof.Total()
	if total <= 0 {
		return 0
	}
	var s float64
	for u, oc := range o.oc {
		s += oc * o.prof.T[u]
	}
	return s / total
}

func (o *Occupancy) rebuild() {
	if !o.anyDirty && o.inner != nil {
		return
	}
	n := len(o.oc)
	nBlocks := (n + (1 << occBlockShift) - 1) >> occBlockShift
	if o.inner == nil {
		o.inner = make([]float64, n)
		o.blockCum = make([]float64, nBlocks+1)
		o.dirty = make([]bool, nBlocks)
		for b := range o.dirty {
			o.dirty[b] = true
		}
	}
	for b := 0; b < nBlocks; b++ {
		if !o.dirty[b] {
			continue
		}
		o.dirty[b] = false
		lo := b << occBlockShift
		hi := lo + (1 << occBlockShift)
		if hi > n {
			hi = n
		}
		var s float64
		for u := lo; u < hi; u++ {
			s += (1 - o.oc[u]) * o.prof.T[u]
			o.inner[u] = s
		}
	}
	var total float64
	for b := 0; b < nBlocks; b++ {
		o.blockCum[b] = total
		hi := (b+1)<<occBlockShift - 1
		if hi >= n {
			hi = n - 1
		}
		total += o.inner[hi]
	}
	o.blockCum[nBlocks] = total
	o.anyDirty = false
}

// freePrefix returns Σ_{v<=u} (1-oc[v])·T[v]; callers rebuild first
// and clamp u into [-1, n-1].
func (o *Occupancy) freePrefix(u int) float64 {
	if u < 0 {
		return 0
	}
	return o.blockCum[u>>occBlockShift] + o.inner[u]
}

// FreePrefixAt exposes the free-time prefix sum through schedule index
// u (u = -1 yields 0, u must be < len). FreeTime(a, b) equals
// FreePrefixAt(b) − FreePrefixAt(a−1) for in-range arguments; hot
// scoring loops use this form to hoist the bottleneck-side prefix out
// of per-candidate work. The caller must Materialize() first and not
// Reserve in between.
func (o *Occupancy) FreePrefixAt(u int) float64 { return o.freePrefix(u) }

// Materialize forces the lazy prefix-sum rebuild now. Call it before
// handing the tracker to concurrent readers: FreeTime/Stall are
// read-only afterwards (until the next Reserve), so a materialized
// tracker can be shared by a scoring worker pool without locks.
func (o *Occupancy) Materialize() { o.rebuild() }

// FreeTime returns Σ (1-Oc_u)·T_u over [from, to] — the transfer time
// that can be hidden under computation in that window (Eq. 3).
func (o *Occupancy) FreeTime(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to >= len(o.oc) {
		to = len(o.oc) - 1
	}
	if from > to {
		return 0
	}
	o.rebuild()
	return o.freePrefix(to) - o.freePrefix(from-1)
}

// Stall returns the non-overlappable remainder of a transfer of the
// given duration placed in [from, to]: max(transfer − FreeTime, 0).
func (o *Occupancy) Stall(transfer float64, from, to int) float64 {
	if rest := transfer - o.FreeTime(from, to); rest > 0 {
		return rest
	}
	return 0
}

// Reserve greedily books transfer seconds of PCIe time across
// [from, to], front-loaded (the paper assigns the ideal swap-out begin
// time as the tensor's generation time). It returns the seconds that
// did not fit — computation will stall for that long.
func (o *Occupancy) Reserve(transfer float64, from, to int) (stall float64) {
	if from < 0 {
		from = 0
	}
	if to >= len(o.oc) {
		to = len(o.oc) - 1
	}
	for u := from; u <= to && transfer > 0; {
		b := u >> occBlockShift
		if o.full[b] == o.blockSize(b) {
			// Every slot in the block is saturated (oc == 1) or has
			// zero duration: nothing to take, hop the whole block.
			u = (b + 1) << occBlockShift
			continue
		}
		end := (b+1)<<occBlockShift - 1
		if end > to {
			end = to
		}
		for ; u <= end && transfer > 0; u++ {
			free := (1 - o.oc[u]) * o.prof.T[u]
			if free > 0 {
				if transfer < free {
					o.fill(u, transfer)
					transfer = 0
				} else {
					o.saturate(u)
					transfer -= free
				}
			}
		}
	}
	return transfer
}

// ReserveBack books transfer seconds of PCIe time across [from, to],
// back-loaded: slots nearest the deadline are taken first, so a
// prefetched tensor re-occupies device memory as late as the link
// allows. It returns the earliest index actually used (the prefetch
// issue position) and the seconds that did not fit (stall).
func (o *Occupancy) ReserveBack(transfer float64, from, to int) (start int, stall float64) {
	if from < 0 {
		from = 0
	}
	if to >= len(o.oc) {
		to = len(o.oc) - 1
	}
	start = to
	if to < from {
		return from, transfer
	}
	for u := to; u >= from && transfer > 0; {
		b := u >> occBlockShift
		if o.full[b] == o.blockSize(b) {
			u = b<<occBlockShift - 1
			continue
		}
		lo := b << occBlockShift
		if lo < from {
			lo = from
		}
		for ; u >= lo && transfer > 0; u-- {
			free := (1 - o.oc[u]) * o.prof.T[u]
			if free > 0 {
				if transfer < free {
					o.fill(u, transfer)
					transfer = 0
				} else {
					o.saturate(u)
					transfer -= free
				}
				start = u
			}
		}
	}
	return start, transfer
}
