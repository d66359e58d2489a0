package memorypool

import (
	"cmp"
	"slices"
	"testing"
)

// lcg is a tiny deterministic generator so the property test never
// depends on math/rand's sequence or a wall-clock seed.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 11
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// refPool is the property test's model of the pool: the live extents
// as a plain offset -> size map, from which the free gaps and every
// placement the pool must make are derived.
type refPool struct {
	capacity int64
	strategy Strategy
	used     map[int64]int64
}

type extent struct{ off, size int64 }

// gaps lists the free extents in address order.
func (r *refPool) gaps() []extent {
	offs := make([]int64, 0, len(r.used))
	for off := range r.used {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	var out []extent
	var cursor int64
	for _, off := range offs {
		if off > cursor {
			out = append(out, extent{cursor, off - cursor})
		}
		cursor = off + r.used[off]
	}
	if cursor < r.capacity {
		out = append(out, extent{cursor, r.capacity - cursor})
	}
	return out
}

// place returns where Alloc(size) must put an aligned request, or -1.
func (r *refPool) place(size int64) int64 {
	gaps := r.gaps()
	if size >= r.capacity/hugeFraction {
		for i := len(gaps) - 1; i >= 0; i-- {
			if gaps[i].size >= size {
				return gaps[i].off + gaps[i].size - size
			}
		}
		return -1
	}
	best := -1
	for i, g := range gaps {
		if g.size < size {
			continue
		}
		if r.strategy == FirstFit {
			return g.off
		}
		if best < 0 || g.size < gaps[best].size {
			best = i
		}
	}
	if best < 0 {
		return -1
	}
	return gaps[best].off
}

// fits reports whether [off, off+size) lies inside one free gap.
func (r *refPool) fits(off, size int64) bool {
	for _, g := range r.gaps() {
		if g.off <= off && off+size <= g.off+g.size {
			return true
		}
	}
	return false
}

// TestSlotTableProperty drives the pool and refPool through the same
// seeded random sequence of Alloc, AllocAt, FreeBlock, SplitUsedInto,
// MergeUsed, Compact and ResetTo, under both strategies: every
// placement must be the one the model derives, OffsetOf must report
// every live Block at its model offset — across compactions too —
// CheckInvariants must hold after each step, and every copy the pool
// retired — freed, split, merged or reset away — must be refused.
func TestSlotTableProperty(t *testing.T) {
	roundedDown := 0
	for seed := lcg(1); seed <= 8; seed++ {
		rng := seed
		ref := &refPool{capacity: 1 << 18, strategy: Strategy(seed % 2), used: map[int64]int64{}}
		p := New(ref.capacity, ref.strategy)
		var live, dead []Block
		at := map[Block]int64{} // the model's offset of each live block

		retire := func(i int) Block {
			b := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(ref.used, at[b])
			delete(at, b)
			dead = append(dead, b)
			return b
		}
		adopt := func(b Block, off int64) {
			live = append(live, b)
			at[b] = off
			ref.used[off] = b.Size
		}
		byOffset := func(a, b Block) int { return cmp.Compare(at[a], at[b]) }

		for step := 0; step < 3000; step++ {
			switch op := rng.intn(100); {
			case op < 40 || len(live) == 0: // Alloc
				size := int64(rng.intn(64)+1) * Alignment
				if rng.intn(8) == 0 {
					size = ref.capacity/hugeFraction + int64(rng.intn(8))*Alignment
				}
				size -= int64(rng.intn(Alignment)) // unaligned requests round up
				want := ref.place(align(size))
				b, err := p.Alloc(size)
				if want < 0 {
					if err != ErrNoFit {
						t.Fatalf("seed %d step %d: Alloc(%d) = %+v, %v; want ErrNoFit", seed, step, size, b, err)
					}
					break
				}
				if err != nil || p.OffsetOf(b) != want || b.Size != align(size) {
					t.Fatalf("seed %d step %d: Alloc(%d) = %+v, %v; want offset %d", seed, step, size, b, err, want)
				}
				adopt(b, want)
			case op < 50: // AllocAt
				off := int64(rng.intn(int(ref.capacity/Alignment))) * Alignment
				size := int64(rng.intn(16)+1) * Alignment
				want := ref.fits(off, size)
				b, err := p.AllocAt(off, size)
				if (err == nil) != want {
					t.Fatalf("seed %d step %d: AllocAt(%d, %d) err %v, want fit %v", seed, step, off, size, err, want)
				}
				if err == nil {
					if p.OffsetOf(b) != off || b.Size != size {
						t.Fatalf("seed %d step %d: AllocAt(%d, %d) = %+v", seed, step, off, size, b)
					}
					adopt(b, off)
				}
			case op < 72: // FreeBlock
				p.FreeBlock(retire(rng.intn(len(live))))
			case op < 82: // SplitUsedInto
				i := rng.intn(len(live))
				b, n := live[i], rng.intn(4)+1
				if int64(n)*Alignment > b.Size {
					if _, err := p.SplitUsedInto(b, n, nil); err == nil {
						t.Fatalf("seed %d step %d: split of %d bytes into %d parts succeeded", seed, step, b.Size, n)
					}
					break
				}
				// Parts round up to Alignment, or down when rounding up
				// would leave the last part empty or negative.
				part := align(b.Size / int64(n))
				if int64(n-1)*part >= b.Size {
					part = b.Size / int64(n) / Alignment * Alignment
					roundedDown++
				}
				parts, err := p.SplitUsedInto(b, n, nil)
				if err != nil {
					t.Fatalf("seed %d step %d: SplitUsedInto(%+v, %d): %v", seed, step, b, n, err)
				}
				off := at[b]
				end := off + b.Size
				retire(i)
				for k, q := range parts {
					sz := part
					if k == n-1 {
						sz = end - off
					}
					if q.Size < Alignment || p.OffsetOf(q) != off || q.Size != sz {
						t.Fatalf("seed %d step %d: part %d = %+v, want [%d, +%d)", seed, step, k, q, off, sz)
					}
					adopt(q, off)
					off += sz
				}
			case op < 92: // MergeUsed over a run of address-adjacent live blocks
				slices.SortFunc(live, byOffset)
				i := rng.intn(len(live))
				j := i + 1
				for j < len(live) && j-i < 4 && at[live[j-1]]+live[j-1].Size == at[live[j]] {
					j++
				}
				run := slices.Clone(live[i:j])
				start := at[run[0]]
				merged, ok := p.MergeUsed(run)
				if !ok {
					t.Fatalf("seed %d step %d: MergeUsed of %d adjacent live blocks failed", seed, step, len(run))
				}
				var total int64
				for _, b := range run {
					total += b.Size
					retire(slices.Index(live, b))
				}
				if p.OffsetOf(merged) != start || merged.Size != total {
					t.Fatalf("seed %d step %d: merged %+v, want [%d, +%d)", seed, step, merged, start, total)
				}
				adopt(merged, start)
			case op < 97: // Compact: every live block packs down in address order
				slices.SortFunc(live, byOffset)
				moved := p.Compact()
				var cursor, wantMoved int64
				clear(ref.used)
				for _, b := range live {
					if at[b] != cursor {
						wantMoved += b.Size
					}
					at[b] = cursor
					ref.used[cursor] = b.Size
					cursor += b.Size
				}
				if moved != wantMoved {
					t.Fatalf("seed %d step %d: Compact moved %d, want %d", seed, step, moved, wantMoved)
				}
			default: // ResetTo
				for range live {
					retire(0)
				}
				p.ResetTo(ref.capacity, ref.strategy)
			}

			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			var inUse int64
			for _, b := range live {
				if off := p.OffsetOf(b); off != at[b] || ref.used[off] != b.Size {
					t.Fatalf("seed %d step %d: live block %+v at %d disagrees with the model's %d", seed, step, b, off, at[b])
				}
				inUse += b.Size
			}
			if p.InUse() != inUse || len(ref.used) != len(live) || len(at) != len(live) {
				t.Fatalf("seed %d step %d: InUse %d, model %d over %d blocks", seed, step, p.InUse(), inUse, len(live))
			}
			if len(dead) > 0 {
				stale := dead[rng.intn(len(dead))]
				mustRefuse(t, p, stale)
			}
		}
	}
	if roundedDown == 0 {
		t.Fatal("no split reached the rounded-down part size")
	}
}

// mustRefuse asserts that FreeBlock, SplitUsedInto, MergeUsed and
// OffsetOf all reject b and leave the pool unchanged.
func mustRefuse(t *testing.T, p *Pool, b Block) {
	t.Helper()
	before := p.Stats()
	if _, err := p.SplitUsedInto(b, 1, nil); err == nil {
		t.Fatalf("SplitUsedInto accepted retired block %+v", b)
	}
	if _, ok := p.MergeUsed([]Block{b}); ok {
		t.Fatalf("MergeUsed accepted retired block %+v", b)
	}
	mustPanic(t, "FreeBlock", b, func() { p.FreeBlock(b) })
	mustPanic(t, "OffsetOf", b, func() { p.OffsetOf(b) })
	if p.Stats() != before {
		t.Fatalf("refusing %+v changed the pool: %+v -> %+v", b, before, p.Stats())
	}
}

func mustPanic(t *testing.T, what string, b Block, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s accepted retired block %+v", what, b)
		}
	}()
	f()
}

// TestRetiredBlocksRefused: a double free, a Block{} literal, and a
// copy that outlived a split, a merge, a Reset/ResetTo, or its slot's
// reuse at the same offset are each refused; a copy taken before
// Compact is not, and OffsetOf reports where it moved.
func TestRetiredBlocksRefused(t *testing.T) {
	p := New(1<<20, BestFit)
	mustRefuse(t, p, Block{})

	a, _ := p.Alloc(4096)
	aOff := p.OffsetOf(a)
	p.FreeBlock(a)
	mustRefuse(t, p, a) // double free
	reused, _ := p.Alloc(4096)
	if p.OffsetOf(reused) != aOff || reused.slot != a.slot {
		t.Fatalf("reallocation %+v did not reuse %+v's offset and slot", reused, a)
	}
	mustRefuse(t, p, a) // same slot, same offset, new generation

	parts, err := p.SplitUsedInto(reused, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRefuse(t, p, reused) // split away
	merged, ok := p.MergeUsed(parts)
	if !ok {
		t.Fatal("merge of split parts failed")
	}
	for _, q := range parts {
		mustRefuse(t, p, q) // merged away
	}

	gap, _ := p.Alloc(1024)
	moving, _ := p.Alloc(2048)
	p.FreeBlock(gap)
	if moved := p.Compact(); moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	// The copy taken before Compact is still the live block: it now
	// sits where gap was, right after merged, and frees fine.
	if got, want := p.OffsetOf(moving), p.OffsetOf(merged)+merged.Size; got != want {
		t.Fatalf("compacted block at %d, want %d", got, want)
	}
	p.FreeBlock(moving)
	mustRefuse(t, p, moving)
	p.FreeBlock(merged)

	b, _ := p.Alloc(4096)
	p.Reset()
	mustRefuse(t, p, b)
	c, _ := p.Alloc(4096)
	p.ResetTo(1<<21, FirstFit)
	mustRefuse(t, p, c)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolResetTo(t *testing.T) {
	p := New(1<<20, BestFit)
	b, err := p.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	p.FreeBlock(b)
	if _, err := p.Alloc(1 << 21); err == nil {
		t.Fatal("expected failure alloc")
	}
	p.ResetTo(1<<21, FirstFit)
	st := p.Stats()
	if st != (Stats{Capacity: 1 << 21, FreeBlocks: 1, LargestFree: 1 << 21}) {
		t.Fatalf("ResetTo left stats %+v", st)
	}
	if _, err := p.Alloc(1 << 20); err != nil {
		t.Fatalf("alloc after ResetTo: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocatesNothing: once the slot table, the free list
// and Compact's scratch have grown, a run of allocations, splits, merges,
// frees and a compaction after ResetTo reuses their storage.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	p := New(1<<20, BestFit)
	var blocks, parts []Block
	run := func() {
		p.ResetTo(1<<20, BestFit)
		blocks = blocks[:0]
		for i := 0; i < 64; i++ {
			b, err := p.Alloc(int64(i%7+1) * 1024)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		var err error
		if parts, err = p.SplitUsedInto(blocks[10], 4, parts[:0]); err != nil {
			t.Fatal(err)
		}
		m, ok := p.MergeUsed(parts)
		if !ok {
			t.Fatal("merge failed")
		}
		blocks[10] = m
		for i := 0; i < len(blocks); i += 2 {
			p.FreeBlock(blocks[i])
		}
		p.Compact()
		for i := 1; i < len(blocks); i += 2 {
			p.FreeBlock(blocks[i])
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a recycled pool allocates %.0f times a run, want 0", n)
	}
}
