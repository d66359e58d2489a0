package memorypool

import (
	"strings"
	"testing"
)

func TestCheckInvariantsHealthy(t *testing.T) {
	p := New(1<<20, BestFit)
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("fresh pool: %v", err)
	}
	var blocks []Block
	for i := 0; i < 8; i++ {
		b, err := p.Alloc(int64(1000 * (i + 1)))
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("after alloc %d: %v", i, err)
		}
	}
	// Free in an order that exercises coalescing on both sides.
	for _, i := range []int{1, 3, 2, 7, 0, 5, 6, 4} {
		p.FreeBlock(blocks[i])
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("after free %d: %v", i, err)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("drained pool: %v", err)
	}
}

func TestCheckInvariantsAfterSplitMergeCompact(t *testing.T) {
	p := New(1<<20, BestFit)
	b, err := p.Alloc(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := p.SplitUsedInto(b, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after split: %v", err)
	}
	merged, ok := p.MergeUsed(parts)
	if !ok {
		t.Fatal("merge of contiguous parts failed")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after merge: %v", err)
	}
	c, err := p.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	p.FreeBlock(merged)
	_ = c
	p.Compact()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after compact: %v", err)
	}
}

// The corruption tests reach into the pool's private state — the free
// list, the stats and the slot table — and each one fabricates exactly
// the inconsistency CheckInvariants exists to catch.
func TestCheckInvariantsCorruption(t *testing.T) {
	mustFail := func(t *testing.T, p *Pool, wantSub string) {
		t.Helper()
		err := p.CheckInvariants()
		if err == nil {
			t.Fatal("corrupt pool passed CheckInvariants")
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	t.Run("overlapping used blocks", func(t *testing.T) {
		p := New(1<<20, BestFit)
		b, _ := p.Alloc(4096)
		p.claim(p.OffsetOf(b)+256, 4096)
		p.stats.InUse += 4096
		mustFail(t, p, "overlaps")
	})

	t.Run("in-use stat drift", func(t *testing.T) {
		p := New(1<<20, BestFit)
		_, _ = p.Alloc(4096)
		p.stats.InUse += 512
		mustFail(t, p, "InUse stat")
	})

	t.Run("uncoalesced free list", func(t *testing.T) {
		p := New(1<<20, BestFit)
		p.free = []freeBlock{{0, 4096}, {4096, p.capacity - 4096}}
		mustFail(t, p, "not coalesced")
	})

	t.Run("leaked bytes", func(t *testing.T) {
		p := New(1<<20, BestFit)
		b, _ := p.Alloc(4096)
		p.release(b.slot - 1)
		p.stats.InUse -= b.Size
		mustFail(t, p, "neither used nor free")
	})

	t.Run("unsorted free list", func(t *testing.T) {
		p := New(1<<20, BestFit)
		p.free = []freeBlock{{8192, 4096}, {0, 4096}}
		mustFail(t, p, "not sorted")
	})

	t.Run("lost slot", func(t *testing.T) {
		p := New(1<<20, BestFit)
		b, _ := p.Alloc(4096)
		p.FreeBlock(b)
		p.spare = p.spare[:0]
		mustFail(t, p, "slot table")
	})

	t.Run("live spare slot", func(t *testing.T) {
		p := New(1<<20, BestFit)
		a, _ := p.Alloc(4096)
		b, _ := p.Alloc(4096)
		p.FreeBlock(b)
		p.spare[0] = a.slot - 1
		mustFail(t, p, "spare slot")
	})
}
