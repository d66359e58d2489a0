// Package memorypool implements the pre-allocated device memory pool
// of paper Sec. V-D. TSPLIT's fine-grained scheduling allocates and
// frees tensors far more often than tensor-wise managers, so the real
// system replaces cudaMalloc/cudaFree with a pooled allocator; we do
// the same over a simulated address space. Best-fit placement (the
// paper's choice, to keep micro-tensors contiguous) and first-fit are
// both provided, and the pool tracks the statistics the experiments
// report: peak usage, current usage, allocation failures and external
// fragmentation.
package memorypool

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Strategy selects the free-block placement policy.
type Strategy int

const (
	// BestFit chooses the smallest free block that fits (paper default:
	// "we use best-fit memory allocation strategy ... to store
	// micro-tensors in contiguous chunks").
	BestFit Strategy = iota
	// FirstFit chooses the lowest-address block that fits (ablation).
	FirstFit
)

// String names the strategy.
func (s Strategy) String() string {
	if s == BestFit {
		return "best-fit"
	}
	return "first-fit"
}

// Alignment of every allocation, matching CUDA's 256-byte texture
// alignment that real allocators round to.
const Alignment = 256

// Block is an allocated region handed back to the caller: its size and
// a handle into the pool's slot table. The slot alone holds the
// block's offset — the sTensor indirection of paper Sec. V-D — so
// Compact moves a block without touching any copy of it, and OffsetOf
// reads where it lives now. Only a Block the pool returned can be
// freed, split or merged, and only while its allocation lives: the
// zero Block, a second free, and a copy that outlived a split, a
// merge, a Reset/ResetTo or the reuse of its slot are all refused.
type Block struct {
	Size int64 // aligned size actually reserved

	slot int32  // index+1 into Pool.slots; 0: no block
	gen  uint32 // the slot's generation when the block took it
}

// Stats summarizes pool behaviour over its lifetime.
type Stats struct {
	Capacity   int64
	InUse      int64
	Peak       int64
	Allocs     int64
	Frees      int64
	Failures   int64
	FreeBlocks int
	// LargestFree is the biggest free block; Capacity-InUse-LargestFree
	// measures external fragmentation.
	LargestFree int64
}

type freeBlock struct {
	off, size int64
}

// slot is one entry of the pool's table of live blocks. A released
// slot goes on the spare list with its generation bumped, so a Block
// copy that outlived its allocation never matches the slot's next
// occupant.
type slot struct {
	off, size int64
	gen       uint32
	live      bool
}

// slotRef pairs a live block's offset with its slot, for Compact's
// address-order walk.
type slotRef struct {
	off  int64
	slot int32
}

// Pool is a best-fit/first-fit allocator over a fixed-size arena. It is
// not safe for concurrent use; the simulator drives it from one
// goroutine, as the real runtime drives its pool from the scheduling
// thread.
type Pool struct {
	capacity int64
	strategy Strategy
	free     []freeBlock // sorted by offset, coalesced
	stats    Stats

	// slots is the dense table of live blocks a Block's handle
	// indexes; spare lists the released slots, reused last-in first-out.
	slots []slot
	spare []int32

	// refs is Compact's scratch, reused across calls so the
	// simulator's compaction path allocates nothing per event.
	refs []slotRef
}

// initSlots presizes the slot table and the spare list, so a fresh
// pool's first few hundred live blocks cost no regrowth.
const initSlots = 256

// New creates a pool over an arena of the given capacity in bytes.
func New(capacity int64, strategy Strategy) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("memorypool: non-positive capacity %d", capacity))
	}
	return &Pool{
		capacity: capacity,
		strategy: strategy,
		free:     []freeBlock{{0, capacity}},
		slots:    make([]slot, 0, initSlots),
		spare:    make([]int32, 0, initSlots),
	}
}

func align(n int64) int64 {
	if n <= 0 {
		return Alignment
	}
	return (n + Alignment - 1) &^ (Alignment - 1)
}

// Capacity returns the arena size.
func (p *Pool) Capacity() int64 { return p.capacity }

// InUse returns currently allocated bytes (aligned).
func (p *Pool) InUse() int64 { return p.stats.InUse }

// Available returns the bytes not allocated, p.Capacity() - p.InUse(),
// whether or not one free block holds them.
func (p *Pool) Available() int64 { return p.capacity - p.stats.InUse }

// hugeFraction: allocations larger than capacity/hugeFraction are
// placed descending from the top of the arena, segregating the few
// huge blocks from the many small ones — the classic size-class
// mitigation against external fragmentation that real pooled DL
// allocators employ.
const hugeFraction = 16

// ErrNoFit is Alloc's failure: no free block fits the request (the OOM
// signal the planner and Tables IV/V rely on). It carries no detail, so
// a failed Alloc — which the simulator answers by freeing and retrying
// — allocates nothing; OOMError spells the detail out for a caller that
// reports it.
var ErrNoFit = errors.New("memorypool: no free block fits")

// Alloc reserves size bytes and returns the block, or ErrNoFit when no
// free block fits.
func (p *Pool) Alloc(size int64) (Block, error) {
	size = align(size)
	idx := -1
	fromTop := size >= p.capacity/hugeFraction
	switch {
	case fromTop:
		// Highest-offset block that fits; carve from its end.
		for i := len(p.free) - 1; i >= 0; i-- {
			if p.free[i].size >= size {
				idx = i
				break
			}
		}
	case p.strategy == BestFit:
		// The first block of minimal size wins, so the scan may stop
		// at the first exact fit.
		var best int64 = 1<<63 - 1
		for i, fb := range p.free {
			if fb.size >= size && fb.size < best {
				best, idx = fb.size, i
				if fb.size == size {
					break
				}
			}
		}
	default: // FirstFit
		for i, fb := range p.free {
			if fb.size >= size {
				idx = i
				break
			}
		}
	}
	if idx == -1 {
		p.stats.Failures++
		return Block{}, ErrNoFit
	}
	fb := p.free[idx]
	off := fb.off
	switch {
	case fb.size == size:
		p.free = append(p.free[:idx], p.free[idx+1:]...)
	case fromTop:
		off = fb.off + fb.size - size
		p.free[idx].size -= size
	default:
		p.free[idx] = freeBlock{fb.off + size, fb.size - size}
	}
	return p.reserve(off, size), nil
}

// reserve counts a new allocation of [off, off+size) in the stats and
// gives it a slot.
func (p *Pool) reserve(off, size int64) Block {
	p.stats.Allocs++
	p.stats.InUse += size
	if p.stats.InUse > p.stats.Peak {
		p.stats.Peak = p.stats.InUse
	}
	return p.claim(off, size)
}

// claim records a live block in a slot — the most recently released
// one, or a new one — and returns its handle.
func (p *Pool) claim(off, size int64) Block {
	var i int32
	if n := len(p.spare); n > 0 {
		i = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		p.slots = append(p.slots, slot{})
		i = int32(len(p.slots) - 1)
	}
	s := &p.slots[i]
	s.off, s.size, s.live = off, size, true
	return Block{Size: size, slot: i + 1, gen: s.gen}
}

// release retires slot i: its generation moves on and it becomes the
// next slot claim hands out.
func (p *Pool) release(i int32) {
	s := &p.slots[i]
	s.live = false
	s.gen++
	p.spare = append(p.spare, i)
}

// lookup returns the slot of b when b is a live allocation of this
// pool: its handle names a live slot of the same generation.
func (p *Pool) lookup(b Block) (int32, bool) {
	i := b.slot - 1
	if i < 0 || int(i) >= len(p.slots) {
		return 0, false
	}
	s := &p.slots[i]
	return i, s.live && s.gen == b.gen
}

// OffsetOf returns where the live block b starts in the arena now,
// after any Compact that moved it. Like FreeBlock, it panics when b is
// not live.
func (p *Pool) OffsetOf(b Block) int64 {
	i, ok := p.lookup(b)
	if !ok {
		panic(fmt.Sprintf("memorypool: offset of unallocated block %+v", b))
	}
	return p.slots[i].off
}

// OOMError describes an Alloc(size) that just returned ErrNoFit: the
// aligned request, the bytes in use, the capacity and the largest free
// block.
func (p *Pool) OOMError(size int64) error {
	return fmt.Errorf("memorypool: OOM allocating %d bytes (in use %d of %d, largest free %d)",
		align(size), p.stats.InUse, p.capacity, p.largestFree())
}

// FreeBlock returns a block to the pool, coalescing with neighbours.
// Freeing a block that is not live — a second free, the zero Block, a
// copy retired by a split or a merge — panics: it is a scheduler bug,
// not a runtime condition.
func (p *Pool) FreeBlock(b Block) {
	i, ok := p.lookup(b)
	if !ok {
		panic(fmt.Sprintf("memorypool: free of unallocated block %+v", b))
	}
	off, size := p.slots[i].off, p.slots[i].size
	p.release(i)
	p.stats.Frees++
	p.stats.InUse -= size
	p.insertFree(off, size)
}

// AllocAt reserves size bytes at an exact offset, failing when any of
// that range is not free. The split runtime uses it to place output
// micro-tensors into just-freed input micro-slots, guaranteeing an
// in-place merge (paper Sec. V-C / Fig. 8 memory reuse).
func (p *Pool) AllocAt(offset, size int64) (Block, error) {
	size = align(size)
	// Only the last free block starting at or below offset can hold it.
	i := p.freeAfter(offset) - 1
	if i < 0 || p.free[i].off+p.free[i].size < offset+size {
		p.stats.Failures++
		return Block{}, fmt.Errorf("memorypool: range [%d,%d) not free", offset, offset+size)
	}
	// Carve [offset, offset+size) out of free block i.
	fb := p.free[i]
	head, tail := offset-fb.off, fb.off+fb.size-offset-size
	switch {
	case head > 0 && tail > 0:
		p.free[i].size = head
		p.insertFree(offset+size, tail)
	case head > 0:
		p.free[i].size = head
	case tail > 0:
		p.free[i] = freeBlock{offset + size, tail}
	default:
		p.free = append(p.free[:i], p.free[i+1:]...)
	}
	return p.reserve(offset, size), nil
}

// freeAfter returns the index of the first free block whose offset is
// above off (len(p.free) when none is).
func (p *Pool) freeAfter(off int64) int {
	lo, hi := 0, len(p.free)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.free[m].off > off {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// insertFree returns [off, off+size) to the free list, coalescing in
// place: a free neighbour that touches it is extended, and only an
// extent with no free neighbour shifts the list to make room.
func (p *Pool) insertFree(off, size int64) {
	i := p.freeAfter(off)
	prev := i > 0 && p.free[i-1].off+p.free[i-1].size == off
	next := i < len(p.free) && off+size == p.free[i].off
	switch {
	case prev && next:
		p.free[i-1].size += size + p.free[i].size
		p.free = append(p.free[:i], p.free[i+1:]...)
	case prev:
		p.free[i-1].size += size
	case next:
		p.free[i] = freeBlock{off, size + p.free[i].size}
	default:
		p.free = append(p.free, freeBlock{})
		copy(p.free[i+1:], p.free[i:])
		p.free[i] = freeBlock{off, size}
	}
}

// SplitUsedInto partitions an allocated block into n consecutive
// sub-blocks that can then be freed independently — the in-place
// tensor split of paper Sec. V-C ("share the same tensor with
// different pointer address"). Sub-block boundaries are aligned: every
// part but the last is size/n rounded up to Alignment — or rounded
// down, when rounding up would leave the last part empty or negative —
// and the last absorbs the remainder. The sub-blocks are appended to
// dst (typically a reused buffer resliced to [:0]), so the simulator's
// split hot path does not allocate a fresh slice per split op. b
// itself is retired: only the sub-blocks live on.
func (p *Pool) SplitUsedInto(b Block, n int, dst []Block) ([]Block, error) {
	i, ok := p.lookup(b)
	if !ok {
		return nil, fmt.Errorf("memorypool: SplitUsedInto of unallocated block %+v", b)
	}
	off, size := p.slots[i].off, p.slots[i].size
	if n < 1 || int64(n)*Alignment > size {
		return nil, fmt.Errorf("memorypool: cannot split %d bytes into %d parts", size, n)
	}
	part := align(size / int64(n))
	if int64(n-1)*part >= size {
		// n*Alignment <= size, so the rounded-down part is >= Alignment.
		part = size / int64(n) &^ (Alignment - 1)
	}
	p.release(i)
	end := off + size
	for k := 0; k < n; k++ {
		sz := part
		if k == n-1 {
			sz = end - off
		}
		dst = append(dst, p.claim(off, sz))
		off += sz
	}
	return dst, nil
}

// MergeUsed fuses allocated blocks into one when they are contiguous
// and ascending — the in-place merge. It reports ok=false (and leaves
// the pool unchanged) when the blocks are not adjacent, in which case
// the caller must perform a physical merge copy, or when one is not
// live. The blocks it fuses are retired; only the returned one lives.
func (p *Pool) MergeUsed(blocks []Block) (Block, bool) {
	if len(blocks) == 0 {
		return Block{}, false
	}
	var start, end int64
	for k, b := range blocks {
		i, ok := p.lookup(b)
		if !ok {
			return Block{}, false
		}
		s := &p.slots[i]
		if k == 0 {
			start = s.off
		} else if s.off != end {
			return Block{}, false
		}
		end = s.off + s.size
	}
	for _, b := range blocks {
		p.release(b.slot - 1)
	}
	return p.claim(start, end-start), true
}

func (p *Pool) largestFree() int64 {
	var max int64
	for _, fb := range p.free {
		if fb.size > max {
			max = fb.size
		}
	}
	return max
}

// CheckInvariants audits the pool's internal structures: the free list
// must be offset-sorted, positive-sized, coalesced, and in-arena; used
// blocks must not overlap each other or any free block; and every byte
// of the arena must be accounted for exactly once. The plan verifier
// calls it after every replayed allocation step, so a corruption is
// reported at the event that introduced it rather than at teardown.
func (p *Pool) CheckInvariants() error {
	type ext struct {
		off, size int64
		used      bool
	}
	exts := make([]ext, 0, len(p.free)+len(p.slots))
	for i, fb := range p.free {
		if fb.size <= 0 {
			return fmt.Errorf("memorypool: free block %d at offset %d has non-positive size %d", i, fb.off, fb.size)
		}
		if i > 0 && p.free[i-1].off >= fb.off {
			return fmt.Errorf("memorypool: free list not sorted at index %d (%d >= %d)", i, p.free[i-1].off, fb.off)
		}
		if i > 0 && p.free[i-1].off+p.free[i-1].size == fb.off {
			return fmt.Errorf("memorypool: free blocks at %d and %d are adjacent but not coalesced", p.free[i-1].off, fb.off)
		}
		exts = append(exts, ext{fb.off, fb.size, false})
	}
	var inUse int64
	live := 0
	for _, s := range p.slots {
		if !s.live {
			continue
		}
		if s.size <= 0 {
			return fmt.Errorf("memorypool: used block at offset %d has non-positive size %d", s.off, s.size)
		}
		live++
		inUse += s.size
		exts = append(exts, ext{s.off, s.size, true})
	}
	if live+len(p.spare) != len(p.slots) {
		return fmt.Errorf("memorypool: slot table holds %d live and %d spare slots of %d", live, len(p.spare), len(p.slots))
	}
	for _, i := range p.spare {
		if p.slots[i].live {
			return fmt.Errorf("memorypool: spare slot %d holds the live block at offset %d", i, p.slots[i].off)
		}
	}
	if inUse != p.stats.InUse {
		return fmt.Errorf("memorypool: InUse stat %d disagrees with used-block sum %d", p.stats.InUse, inUse)
	}
	slices.SortStableFunc(exts, func(a, b ext) int { return cmp.Compare(a.off, b.off) })
	var cursor int64
	for _, e := range exts {
		if e.off < cursor {
			return fmt.Errorf("memorypool: extent at offset %d (size %d) overlaps the previous extent ending at %d", e.off, e.size, cursor)
		}
		if e.off > cursor {
			return fmt.Errorf("memorypool: %d bytes at offset %d tracked neither used nor free", e.off-cursor, cursor)
		}
		cursor = e.off + e.size
	}
	if cursor != p.capacity {
		return fmt.Errorf("memorypool: extents cover %d of %d bytes", cursor, p.capacity)
	}
	return nil
}

// Stats returns a snapshot of pool statistics.
func (p *Pool) Stats() Stats {
	s := p.stats
	s.Capacity = p.capacity
	s.FreeBlocks = len(p.free)
	s.LargestFree = p.largestFree()
	return s
}

// Reset returns the pool to its initial empty state, keeping lifetime
// counters (Allocs/Frees/Failures) intact.
func (p *Pool) Reset() {
	p.free = append(p.free[:0], freeBlock{0, p.capacity})
	p.releaseAll()
	p.stats.InUse = 0
}

// releaseAll retires every live slot, keeping the table's storage, so
// no Block handed out before stays valid.
func (p *Pool) releaseAll() {
	p.spare = p.spare[:0]
	for i := len(p.slots) - 1; i >= 0; i-- {
		if s := &p.slots[i]; s.live {
			s.live = false
			s.gen++
		}
		p.spare = append(p.spare, int32(i))
	}
}

// ResetTo reinitializes the pool in place to a (possibly different)
// capacity and strategy with all statistics zeroed, as if freshly
// constructed by New — but reusing the free list and slot-table
// storage; no Block handed out before stays valid. The pooled
// simulator calls this once per borrowed run, so a recycled arena
// reports the same Peak/Allocs/Frees a fresh one would.
func (p *Pool) ResetTo(capacity int64, strategy Strategy) {
	if capacity <= 0 {
		panic(fmt.Sprintf("memorypool: non-positive capacity %d", capacity))
	}
	p.capacity = capacity
	p.strategy = strategy
	p.free = append(p.free[:0], freeBlock{0, capacity})
	p.releaseAll()
	p.stats = Stats{}
}

// Compact repacks every allocated block to the bottom of the arena in
// address order, eliminating external fragmentation, and returns the
// bytes moved (the cost a runtime pays in device-to-device copies).
// Compaction is possible because the slot, like the sTensor
// indirection above the real runtime's pool, owns every block's
// offset; real pooled DL allocators perform the same re-placement at
// synchronization points.
//
// A moved block keeps its handle, so every copy of it stays valid: the
// caller goes on freeing, splitting and merging it, and OffsetOf
// reports where it moved.
func (p *Pool) Compact() (moved int64) {
	refs := p.refs[:0]
	for i, s := range p.slots {
		if s.live {
			refs = append(refs, slotRef{s.off, int32(i)})
		}
	}
	slices.SortFunc(refs, func(a, b slotRef) int { return cmp.Compare(a.off, b.off) })
	var cursor int64
	for _, r := range refs {
		s := &p.slots[r.slot]
		if r.off != cursor {
			moved += s.size
		}
		s.off = cursor
		cursor += s.size
	}
	p.refs = refs[:0]
	p.free = p.free[:0]
	if cursor < p.capacity {
		p.free = append(p.free, freeBlock{cursor, p.capacity - cursor})
	}
	return moved
}
