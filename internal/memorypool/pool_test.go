package memorypool

import (
	"testing"
	"testing/quick"
)

func TestAllocFree(t *testing.T) {
	p := New(1<<20, BestFit)
	b1, err := p.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Size != align(1000) {
		t.Fatalf("size %d", b1.Size)
	}
	if p.InUse() != b1.Size {
		t.Fatalf("in use %d", p.InUse())
	}
	p.FreeBlock(b1)
	if p.InUse() != 0 {
		t.Fatalf("in use after free %d", p.InUse())
	}
	st := p.Stats()
	if st.Allocs != 1 || st.Frees != 1 || st.FreeBlocks != 1 || st.LargestFree != 1<<20 {
		t.Fatalf("stats %+v", st)
	}
}

func TestOOM(t *testing.T) {
	p := New(4096, BestFit)
	if _, err := p.Alloc(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(8000); err != ErrNoFit {
		t.Fatalf("Alloc failed with %v, want ErrNoFit", err)
	}
	if p.Stats().Failures != 1 {
		t.Fatal("failure not counted")
	}
	const want = "memorypool: OOM allocating 8192 bytes (in use 1024 of 4096, largest free 3072)"
	if got := p.OOMError(8000).Error(); got != want {
		t.Fatalf("OOMError = %q, want %q", got, want)
	}
}

// TestFailedAllocAllocatesNothing: the simulator answers a failed
// Alloc by freeing and retrying, so the failure must cost no heap.
func TestFailedAllocAllocatesNothing(t *testing.T) {
	p := New(1<<20, BestFit)
	if _, err := p.Alloc(1 << 19); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := p.Alloc(1 << 20); err == nil {
			t.Fatal("oversized Alloc succeeded")
		}
	}); n != 0 {
		t.Fatalf("a failed Alloc allocates %.0f times, want 0", n)
	}
}

func TestBestFitPicksSmallestHole(t *testing.T) {
	p := New(1<<20, BestFit)
	a, _ := p.Alloc(1024)
	b, _ := p.Alloc(4096)
	c, _ := p.Alloc(1024)
	d, _ := p.Alloc(2048)
	e, _ := p.Alloc(1024) // guard so d's hole stays 2048
	_, _, _ = a, c, e
	hole := p.OffsetOf(d)
	p.FreeBlock(b) // 4096 hole
	p.FreeBlock(d) // 2048 hole
	got, err := p.Alloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if p.OffsetOf(got) != hole {
		t.Fatalf("best-fit chose offset %d, want the 2048 hole at %d", p.OffsetOf(got), hole)
	}
}

func TestCoalescing(t *testing.T) {
	p := New(1<<20, BestFit)
	var blocks []Block
	for i := 0; i < 8; i++ {
		b, err := p.Alloc(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	// Free in interleaved order; all must coalesce back into one block
	// (plus the arena tail, coalesced too).
	for _, i := range []int{1, 3, 5, 7, 0, 2, 4, 6} {
		p.FreeBlock(blocks[i])
	}
	if st := p.Stats(); st.FreeBlocks != 1 || st.LargestFree != 1<<20 {
		t.Fatalf("not coalesced: %+v", st)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New(1<<20, BestFit)
	b, _ := p.Alloc(512)
	p.FreeBlock(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	p.FreeBlock(b)
}

func TestHugeAllocationsSegregateAtTop(t *testing.T) {
	cap := int64(1 << 20)
	p := New(cap, BestFit)
	small, _ := p.Alloc(1024)
	huge, err := p.Alloc(cap / hugeFraction) // at the threshold
	if err != nil {
		t.Fatal(err)
	}
	if p.OffsetOf(huge)+huge.Size != cap {
		t.Fatalf("huge block at %d, want top of arena", p.OffsetOf(huge))
	}
	if p.OffsetOf(small) != 0 {
		t.Fatalf("small block at %d, want bottom", p.OffsetOf(small))
	}
}

func TestSplitUsedAndIndependentFrees(t *testing.T) {
	p := New(1<<20, BestFit)
	b, _ := p.Alloc(10_000)
	parts, err := p.SplitUsedInto(b, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("%d parts", len(parts))
	}
	var total int64
	for i, part := range parts {
		total += part.Size
		if i > 0 && p.OffsetOf(parts[i-1])+parts[i-1].Size != p.OffsetOf(part) {
			t.Fatal("parts not contiguous")
		}
	}
	if total != b.Size {
		t.Fatalf("parts cover %d of %d", total, b.Size)
	}
	p.FreeBlock(parts[1]) // middle part frees independently
	if p.InUse() != b.Size-parts[1].Size {
		t.Fatalf("in use %d", p.InUse())
	}
	p.FreeBlock(parts[0])
	p.FreeBlock(parts[2])
	if p.InUse() != 0 {
		t.Fatal("leak after freeing all parts")
	}
}

func TestSplitUsedErrors(t *testing.T) {
	p := New(1<<20, BestFit)
	if _, err := p.SplitUsedInto(Block{Size: 4096}, 2, nil); err == nil {
		t.Error("splitting unallocated block should fail")
	}
	b, _ := p.Alloc(Alignment)
	if _, err := p.SplitUsedInto(b, 2, nil); err == nil {
		t.Error("splitting a minimal block should fail")
	}
}

// TestSplitUsedIntoRoundsDownForLastPart: 1,280 bytes in 4 parts
// rounds 320 up to 512, which would leave the last part -256 bytes;
// the parts round down to 256 instead and the last takes the rest.
func TestSplitUsedIntoRoundsDownForLastPart(t *testing.T) {
	p := New(1<<20, BestFit)
	b, _ := p.Alloc(1280)
	off := p.OffsetOf(b)
	parts, err := p.SplitUsedInto(b, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []int64{256, 256, 256, 512} {
		if parts[k].Size != want || p.OffsetOf(parts[k]) != off {
			t.Fatalf("part %d = %d bytes at %d, want %d at %d", k, parts[k].Size, p.OffsetOf(parts[k]), want, off)
		}
		off += want
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeUsed(t *testing.T) {
	p := New(1<<20, BestFit)
	b, _ := p.Alloc(8192)
	off := p.OffsetOf(b)
	parts, _ := p.SplitUsedInto(b, 4, nil)
	merged, ok := p.MergeUsed(parts)
	if !ok {
		t.Fatal("adjacent parts should merge")
	}
	if p.OffsetOf(merged) != off || merged.Size != b.Size {
		t.Fatalf("merged = %+v at %d, want %+v at %d", merged, p.OffsetOf(merged), b, off)
	}
	p.FreeBlock(merged)
	if p.InUse() != 0 {
		t.Fatal("leak")
	}
}

func TestMergeUsedRejectsNonAdjacent(t *testing.T) {
	p := New(1<<20, BestFit)
	a, _ := p.Alloc(1024)
	p.Alloc(1024) // spacer
	c, _ := p.Alloc(1024)
	if _, ok := p.MergeUsed([]Block{a, c}); ok {
		t.Fatal("non-adjacent blocks must not merge")
	}
	if p.InUse() != 3*1024 {
		t.Fatal("failed merge must leave pool unchanged")
	}
}

func TestAllocAt(t *testing.T) {
	p := New(1<<20, BestFit)
	b, _ := p.Alloc(4096)
	off := p.OffsetOf(b)
	p.FreeBlock(b)
	got, err := p.AllocAt(off, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.OffsetOf(got) != off {
		t.Fatalf("offset %d", p.OffsetOf(got))
	}
	if _, err := p.AllocAt(off, 4096); err == nil {
		t.Fatal("occupied range must fail")
	}
}

func TestAllocAtCarvesMiddle(t *testing.T) {
	p := New(1<<20, BestFit)
	if _, err := p.AllocAt(8192, 4096); err != nil {
		t.Fatal(err)
	}
	// Head and tail remain allocatable.
	if _, err := p.AllocAt(0, 8192); err != nil {
		t.Fatal("head should be free:", err)
	}
	if _, err := p.AllocAt(8192+4096, 4096); err != nil {
		t.Fatal("tail should be free:", err)
	}
}

func TestCompact(t *testing.T) {
	p := New(1<<20, BestFit)
	var blocks []Block
	for i := 0; i < 10; i++ {
		b, _ := p.Alloc(1 << 10)
		blocks = append(blocks, b)
	}
	for i := 1; i < 10; i += 2 {
		p.FreeBlock(blocks[i])
	}
	if moved := p.Compact(); moved != 4*(1<<10) {
		t.Fatalf("moved %d bytes, want the four blocks above the first hole", moved)
	}
	// Every surviving block is packed in address order, its copies
	// still valid, and the pool is hole-free.
	off := int64(0)
	for i := 0; i < 10; i += 2 {
		if got := p.OffsetOf(blocks[i]); got != off {
			t.Fatalf("block %d at %d, want %d", i, got, off)
		}
		off += blocks[i].Size
	}
	if st := p.Stats(); st.FreeBlocks != 1 {
		t.Fatalf("still fragmented: %+v", st)
	}
	for i := 0; i < 10; i += 2 {
		p.FreeBlock(blocks[i])
	}
	if p.InUse() != 0 {
		t.Fatal("leak after freeing the compacted blocks")
	}
}

func TestReset(t *testing.T) {
	p := New(1<<20, FirstFit)
	p.Alloc(1024)
	p.Reset()
	if p.InUse() != 0 || p.Stats().LargestFree != 1<<20 {
		t.Fatal("reset did not empty the pool")
	}
}

// Property: any sequence of allocations within capacity followed by
// frees in arbitrary order restores a fully coalesced pool.
func TestQuickAllocFreeRestores(t *testing.T) {
	f := func(sizes []uint16, order uint8) bool {
		p := New(1<<22, BestFit)
		var blocks []Block
		for _, s := range sizes {
			b, err := p.Alloc(int64(s) + 1)
			if err != nil {
				break // pool full: fine
			}
			blocks = append(blocks, b)
		}
		// Free in a rotated order.
		n := len(blocks)
		for i := 0; i < n; i++ {
			p.FreeBlock(blocks[(i+int(order))%n])
		}
		st := p.Stats()
		return st.InUse == 0 && st.FreeBlocks == 1 && st.LargestFree == 1<<22
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: best-fit and first-fit both satisfy any request that fits
// in the largest free block.
func TestQuickStrategiesEquivalentFeasibility(t *testing.T) {
	f := func(a, b, c uint16) bool {
		for _, strat := range []Strategy{BestFit, FirstFit} {
			p := New(1<<20, strat)
			x, _ := p.Alloc(int64(a) + 1)
			if _, err := p.Alloc(int64(b) + 1); err != nil {
				return true
			}
			p.FreeBlock(x)
			if int64(c)+1 <= p.Stats().LargestFree {
				if _, err := p.Alloc(int64(c) + 1); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
