package memorypool

import (
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
// placement must be the one the model derives, every live Block must
// keep matching its model extent, CheckInvariants must hold after each
// step, and every copy the pool retired — freed, split, merged or
// reset away — must be refused.
func TestSlotTableProperty(t *testing.T) {
	for seed := lcg(1); seed <= 8; seed++ {
		rng := seed
		ref := &refPool{capacity: 1 << 18, strategy: Strategy(seed % 2), used: map[int64]int64{}}
		p := New(ref.capacity, ref.strategy)
		var live, dead []Block

		retire := func(i int) Block {
			b := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(ref.used, b.Offset)
			dead = append(dead, b)
			return b
		}
		adopt := func(b Block) {
			live = append(live, b)
			ref.used[b.Offset] = b.Size
		}

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
				if err != nil || b.Offset != want || b.Size != align(size) {
					t.Fatalf("seed %d step %d: Alloc(%d) = %+v, %v; want offset %d", seed, step, size, b, err, want)
				}
				adopt(b)
			case op < 50: // AllocAt
				off := int64(rng.intn(int(ref.capacity/Alignment))) * Alignment
				size := int64(rng.intn(16)+1) * Alignment
				want := ref.fits(off, size)
				b, err := p.AllocAt(off, size)
				if (err == nil) != want {
					t.Fatalf("seed %d step %d: AllocAt(%d, %d) err %v, want fit %v", seed, step, off, size, err, want)
				}
				if err == nil {
					if b.Offset != off || b.Size != size {
						t.Fatalf("seed %d step %d: AllocAt(%d, %d) = %+v", seed, step, off, size, b)
					}
					adopt(b)
				}
			case op < 72: // FreeBlock
				p.FreeBlock(retire(rng.intn(len(live))))
			case op < 82: // SplitUsedInto
				i := rng.intn(len(live))
				b, n := live[i], rng.intn(4)+1
				part := align(b.Size / int64(n))
				if int64(n)*Alignment > b.Size {
					if _, err := p.SplitUsedInto(b, n, nil); err == nil {
						t.Fatalf("seed %d step %d: split of %d bytes into %d parts succeeded", seed, step, b.Size, n)
					}
					break
				}
				if int64(n-1)*part >= b.Size {
					break // the last part would be empty or negative, which the pool does not refuse
				}
				parts, err := p.SplitUsedInto(b, n, nil)
				if err != nil {
					t.Fatalf("seed %d step %d: SplitUsedInto(%+v, %d): %v", seed, step, b, n, err)
				}
				retire(i)
				off := b.Offset
				for k, q := range parts {
					sz := part
					if k == n-1 {
						sz = b.Offset + b.Size - off
					}
					if q.Offset != off || q.Size != sz {
						t.Fatalf("seed %d step %d: part %d = %+v, want [%d, +%d)", seed, step, k, q, off, sz)
					}
					off += sz
					adopt(q)
				}
			case op < 92: // MergeUsed over a run of address-adjacent live blocks
				slices.SortFunc(live, func(a, b Block) int { return int(a.Offset - b.Offset) })
				i := rng.intn(len(live))
				j := i + 1
				for j < len(live) && j-i < 4 && live[j-1].Offset+live[j-1].Size == live[j].Offset {
					j++
				}
				run := slices.Clone(live[i:j])
				merged, ok := p.MergeUsed(run)
				if !ok {
					t.Fatalf("seed %d step %d: MergeUsed of %d adjacent live blocks failed", seed, step, len(run))
				}
				var total int64
				for _, b := range run {
					total += b.Size
					retire(slices.Index(live, b))
				}
				if merged.Offset != run[0].Offset || merged.Size != total {
					t.Fatalf("seed %d step %d: merged %+v, want [%d, +%d)", seed, step, merged, run[0].Offset, total)
				}
				adopt(merged)
			case op < 97: // Compact
				slices.SortFunc(live, func(a, b Block) int { return int(a.Offset - b.Offset) })
				remap, moved := p.Compact()
				var cursor, wantMoved int64
				clear(ref.used)
				for k := range live {
					b := &live[k]
					if remap[b.Offset] != cursor {
						t.Fatalf("seed %d step %d: remap[%d] = %d, want %d", seed, step, b.Offset, remap[b.Offset], cursor)
					}
					if b.Offset != cursor {
						wantMoved += b.Size
					}
					b.Offset = cursor
					ref.used[cursor] = b.Size
					cursor += b.Size
				}
				if len(remap) != len(live) || moved != wantMoved {
					t.Fatalf("seed %d step %d: Compact remapped %d blocks, moved %d; want %d, %d",
						seed, step, len(remap), moved, len(live), wantMoved)
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
				if ref.used[b.Offset] != b.Size {
					t.Fatalf("seed %d step %d: live block %+v disagrees with the model", seed, step, b)
				}
				inUse += b.Size
			}
			if p.InUse() != inUse || len(ref.used) != len(live) {
				t.Fatalf("seed %d step %d: InUse %d, model %d over %d blocks", seed, step, p.InUse(), inUse, len(live))
			}
			if len(dead) > 0 {
				stale := dead[rng.intn(len(dead))]
				mustRefuse(t, p, stale)
			}
		}
	}
}

// mustRefuse asserts that FreeBlock, SplitUsedInto and MergeUsed all
// reject b and leave the pool unchanged.
func mustRefuse(t *testing.T, p *Pool, b Block) {
	t.Helper()
	before := p.Stats()
	if _, err := p.SplitUsedInto(b, 1, nil); err == nil {
		t.Fatalf("SplitUsedInto accepted retired block %+v", b)
	}
	if _, ok := p.MergeUsed([]Block{b}); ok {
		t.Fatalf("MergeUsed accepted retired block %+v", b)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("FreeBlock accepted retired block %+v", b)
			}
		}()
		p.FreeBlock(b)
	}()
	if p.Stats() != before {
		t.Fatalf("refusing %+v changed the pool: %+v -> %+v", b, before, p.Stats())
	}
}

// TestRetiredBlocksRefused: a double free, a Block{} literal, and a
// copy that outlived a split, a merge, or its slot's reuse at the same
// offset are each refused; a copy remapped after Compact is not.
func TestRetiredBlocksRefused(t *testing.T) {
	p := New(1<<20, BestFit)
	mustRefuse(t, p, Block{})

	a, _ := p.Alloc(4096)
	p.FreeBlock(a)
	mustRefuse(t, p, a) // double free
	reused, _ := p.Alloc(4096)
	if reused.Offset != a.Offset || reused.slot != a.slot {
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
	remap, moved := p.Compact()
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	mustRefuse(t, p, moving) // a copy not remapped has a stale offset
	moving.Offset = remap[moving.Offset]
	p.FreeBlock(moving)
	merged.Offset = remap[merged.Offset]
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
// and Compact's remap have grown, a run of allocations, splits, merges,
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
		remap, _ := p.Compact()
		for i := 1; i < len(blocks); i += 2 {
			blocks[i].Offset = remap[blocks[i].Offset]
			p.FreeBlock(blocks[i])
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("a recycled pool allocates %.0f times a run, want 0", n)
	}
}
