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
	"errors"
	"fmt"
	"sort"
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

// Block is an allocated region handed back to the caller.
type Block struct {
	Offset int64
	Size   int64 // aligned size actually reserved
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

// Pool is a best-fit/first-fit allocator over a fixed-size arena. It is
// not safe for concurrent use; the simulator drives it from one
// goroutine, as the real runtime drives its pool from the scheduling
// thread.
type Pool struct {
	capacity int64
	strategy Strategy
	free     []freeBlock // sorted by offset, coalesced
	used     usedTable
	stats    Stats

	// scratch reused across Compact calls so the simulator's
	// compaction path does not allocate fresh slices per event.
	offScratch  []int64
	sizeScratch []int64
}

// New creates a pool over an arena of the given capacity in bytes.
func New(capacity int64, strategy Strategy) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("memorypool: non-positive capacity %d", capacity))
	}
	p := &Pool{
		capacity: capacity,
		strategy: strategy,
		free:     []freeBlock{{0, capacity}},
	}
	p.used.init(0)
	return p
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

// Free returns p.capacity - p.InUse().
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
		var best int64 = 1<<63 - 1
		for i, fb := range p.free {
			if fb.size >= size && fb.size < best {
				best, idx = fb.size, i
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
	var b Block
	switch {
	case fb.size == size:
		b = Block{Offset: fb.off, Size: size}
		p.free = append(p.free[:idx], p.free[idx+1:]...)
	case fromTop:
		b = Block{Offset: fb.off + fb.size - size, Size: size}
		p.free[idx] = freeBlock{fb.off, fb.size - size}
	default:
		b = Block{Offset: fb.off, Size: size}
		p.free[idx] = freeBlock{fb.off + size, fb.size - size}
	}
	p.used.put(b.Offset, size)
	p.stats.Allocs++
	p.stats.InUse += size
	if p.stats.InUse > p.stats.Peak {
		p.stats.Peak = p.stats.InUse
	}
	return b, nil
}

// OOMError describes an Alloc(size) that just returned ErrNoFit: the
// aligned request, the bytes in use, the capacity and the largest free
// block.
func (p *Pool) OOMError(size int64) error {
	return fmt.Errorf("memorypool: OOM allocating %d bytes (in use %d of %d, largest free %d)",
		align(size), p.stats.InUse, p.capacity, p.largestFree())
}

// FreeBlock returns a block to the pool, coalescing with neighbours.
// Freeing an offset that is not allocated panics: it is a scheduler
// bug, not a runtime condition.
func (p *Pool) FreeBlock(b Block) {
	size, ok := p.used.del(b.Offset)
	if !ok {
		panic(fmt.Sprintf("memorypool: free of unallocated offset %d", b.Offset))
	}
	p.stats.Frees++
	p.stats.InUse -= size

	i := sort.Search(len(p.free), func(i int) bool { return p.free[i].off > b.Offset })
	p.free = append(p.free, freeBlock{})
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = freeBlock{b.Offset, size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(p.free) && p.free[i].off+p.free[i].size == p.free[i+1].off {
		p.free[i].size += p.free[i+1].size
		p.free = append(p.free[:i+1], p.free[i+2:]...)
	}
	if i > 0 && p.free[i-1].off+p.free[i-1].size == p.free[i].off {
		p.free[i-1].size += p.free[i].size
		p.free = append(p.free[:i], p.free[i+1:]...)
	}
}

// AllocAt reserves size bytes at an exact offset, failing when any of
// that range is not free. The split runtime uses it to place output
// micro-tensors into just-freed input micro-slots, guaranteeing an
// in-place merge (paper Sec. V-C / Fig. 8 memory reuse).
func (p *Pool) AllocAt(offset, size int64) (Block, error) {
	size = align(size)
	for i, fb := range p.free {
		if fb.off > offset || fb.off+fb.size < offset+size {
			continue
		}
		// Carve [offset, offset+size) out of fb.
		tail := freeBlock{offset + size, fb.off + fb.size - offset - size}
		head := freeBlock{fb.off, offset - fb.off}
		repl := p.free[:i]
		repl = append(repl, p.free[i+1:]...)
		p.free = repl
		if head.size > 0 {
			p.insertFree(head)
		}
		if tail.size > 0 {
			p.insertFree(tail)
		}
		p.used.put(offset, size)
		p.stats.Allocs++
		p.stats.InUse += size
		if p.stats.InUse > p.stats.Peak {
			p.stats.Peak = p.stats.InUse
		}
		return Block{Offset: offset, Size: size}, nil
	}
	p.stats.Failures++
	return Block{}, fmt.Errorf("memorypool: range [%d,%d) not free", offset, offset+size)
}

func (p *Pool) insertFree(fb freeBlock) {
	i := sort.Search(len(p.free), func(i int) bool { return p.free[i].off > fb.off })
	p.free = append(p.free, freeBlock{})
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = fb
}

// SplitUsedInto partitions an allocated block into n consecutive
// sub-blocks that can then be freed independently — the in-place
// tensor split of paper Sec. V-C ("share the same tensor with
// different pointer address"). Sub-block boundaries are aligned; the
// last sub-block absorbs the remainder. The sub-blocks are appended to
// dst (typically a reused buffer resliced to [:0]), so the simulator's
// split hot path does not allocate a fresh slice per split op.
func (p *Pool) SplitUsedInto(b Block, n int, dst []Block) ([]Block, error) {
	size, ok := p.used.get(b.Offset)
	if !ok {
		return nil, fmt.Errorf("memorypool: SplitUsedInto of unallocated offset %d", b.Offset)
	}
	if n < 1 || int64(n)*Alignment > size {
		return nil, fmt.Errorf("memorypool: cannot split %d bytes into %d parts", size, n)
	}
	part := align(size / int64(n))
	p.used.del(b.Offset)
	off := b.Offset
	for i := 0; i < n; i++ {
		sz := part
		if i == n-1 {
			sz = b.Offset + size - off
		}
		dst = append(dst, Block{Offset: off, Size: sz})
		p.used.put(off, sz)
		off += sz
	}
	return dst, nil
}

// MergeUsed fuses allocated blocks into one when they are contiguous
// and ascending — the in-place merge. It reports ok=false (and leaves
// the pool unchanged) when the blocks are not adjacent, in which case
// the caller must perform a physical merge copy.
func (p *Pool) MergeUsed(blocks []Block) (Block, bool) {
	if len(blocks) == 0 {
		return Block{}, false
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1].Offset+blocks[i-1].Size != blocks[i].Offset {
			return Block{}, false
		}
	}
	var total int64
	for _, b := range blocks {
		sz, ok := p.used.get(b.Offset)
		if !ok || sz != b.Size {
			return Block{}, false
		}
		total += sz
	}
	for _, b := range blocks {
		p.used.del(b.Offset)
	}
	merged := Block{Offset: blocks[0].Offset, Size: total}
	p.used.put(merged.Offset, total)
	return merged, true
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
	exts := make([]ext, 0, len(p.free)+p.used.len())
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
	offs := p.used.appendOffsets(make([]int64, 0, p.used.len()))
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		size, _ := p.used.get(off)
		if size <= 0 {
			return fmt.Errorf("memorypool: used block at offset %d has non-positive size %d", off, size)
		}
		inUse += size
		exts = append(exts, ext{off, size, true})
	}
	if inUse != p.stats.InUse {
		return fmt.Errorf("memorypool: InUse stat %d disagrees with used-block sum %d", p.stats.InUse, inUse)
	}
	sort.SliceStable(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
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
	p.used.reset()
	p.stats.InUse = 0
}

// ResetTo reinitializes the pool in place to a (possibly different)
// capacity and strategy with all statistics zeroed, as if freshly
// constructed by New — but reusing the free list and used-table
// storage. The pooled simulator calls this once per borrowed run, so a
// recycled arena reports the same Peak/Allocs/Frees a fresh one would.
func (p *Pool) ResetTo(capacity int64, strategy Strategy) {
	if capacity <= 0 {
		panic(fmt.Sprintf("memorypool: non-positive capacity %d", capacity))
	}
	p.capacity = capacity
	p.strategy = strategy
	p.free = append(p.free[:0], freeBlock{0, capacity})
	p.used.reset()
	p.stats = Stats{}
}

// Compact repacks every allocated block to the bottom of the arena in
// address order, eliminating external fragmentation, and returns the
// offset remapping plus the bytes moved (the cost a runtime pays in
// device-to-device copies). Compaction is possible because the tensor
// abstraction above the pool owns every data pointer (sTensor
// indirection); real pooled DL allocators perform the same
// re-placement at synchronization points.
func (p *Pool) Compact() (remap map[int64]int64, moved int64) {
	offs := p.used.appendOffsets(p.offScratch[:0])
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	sizes := p.sizeScratch[:0]
	for _, off := range offs {
		sz, _ := p.used.get(off)
		sizes = append(sizes, sz)
	}
	remap = make(map[int64]int64, len(offs))
	p.used.reset()
	var cursor int64
	for i, off := range offs {
		size := sizes[i]
		remap[off] = cursor
		p.used.put(cursor, size)
		if off != cursor {
			moved += size
		}
		cursor += size
	}
	p.offScratch = offs[:0]
	p.sizeScratch = sizes[:0]
	p.free = p.free[:0]
	if cursor < p.capacity {
		p.free = append(p.free, freeBlock{cursor, p.capacity - cursor})
	}
	return remap, moved
}
