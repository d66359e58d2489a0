package sim

import (
	"reflect"
	"sync"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/profiler"
)

func TestSimPoolRecyclesAndCounts(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool := NewSimPool()
	pool.Obs = reg
	opts := Options{Recompute: LRURecompute}

	s1 := pool.Get(b.g, b.sched, b.lv, plan, b.dev, opts)
	if s1.Opts.Capacity != b.dev.MemBytes {
		t.Fatalf("Get did not default capacity: %d", s1.Opts.Capacity)
	}
	if pool.Size() != 0 {
		t.Fatalf("Size = %d after Get, want 0", pool.Size())
	}
	pool.Put(s1)
	if pool.Size() != 1 {
		t.Fatalf("Size = %d after Put, want 1", pool.Size())
	}
	s2 := pool.Get(b.g, b.sched, b.lv, plan, b.dev, opts)
	if s2 != s1 {
		t.Fatal("second Get did not recycle the pooled arena")
	}
	pool.Put(s2)

	snap := reg.Snapshot()
	got := map[string]float64{}
	for _, m := range snap {
		got[m.Name] = m.Value
	}
	if got["tsplit_simpool_gets_total"] != 2 {
		t.Fatalf("gets_total = %v, want 2", got["tsplit_simpool_gets_total"])
	}
	if got["tsplit_simpool_reuse_hits_total"] != 1 {
		t.Fatalf("reuse_hits_total = %v, want 1", got["tsplit_simpool_reuse_hits_total"])
	}
}

func TestSimPoolPutSeversRunState(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSimPool()
	s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute, CollectTimeline: true})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(s)
	if s.Plan != nil || s.Opts.Obs != nil || s.Opts.Faults != nil {
		t.Fatal("Put kept borrower-owned references")
	}
	if s.res.Timeline != nil || len(s.lruCache) != 0 || len(s.pending) != 0 {
		t.Fatal("Put kept run state")
	}
	if s.G != b.g || s.Sched != b.sched {
		t.Fatal("Put severed the warm workload identity; the op-time cache depends on it")
	}
	pool.Put(nil) // must be a no-op
	if pool.Size() != 1 {
		t.Fatalf("Size = %d, want 1", pool.Size())
	}
}

// TestSimPoolRecycledGraph runs a pooled simulator on a graph that
// graph.Template.Rebatch rewrites in place between runs: at batch 64,
// then at 256 with the same graph, schedule and liveness pointers. The
// second run must equal a fresh simulator's, so the op-time cache must
// see the new generation rather than the unchanged pointer.
func TestSimPoolRecycledGraph(t *testing.T) {
	var gs [2]*graph.Graph
	for i := range gs {
		g, err := models.Build("vgg16", models.Config{BatchSize: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	tp, err := graph.NewTemplate(gs[0], gs[1])
	if err != nil {
		t.Fatal(err)
	}
	dev := device.TitanRTX
	opts := Options{Recompute: LRURecompute}
	pool := NewSimPool()
	var wl graph.Workload
	var prof *profiler.Profile
	for _, n := range []int{64, 256} {
		tp.Rebatch(n, &wl)
		if prof == nil {
			prof = profiler.New(dev, wl.Sched)
		} else {
			prof.Refresh()
		}
		plan, err := core.NewPlanner(wl.G, wl.Sched, wl.Lv, prof, dev, core.Options{}).Plan()
		if err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		want, err := New(wl.G, wl.Sched, wl.Lv, plan, dev, opts).Run()
		if err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		s := pool.Get(wl.G, wl.Sched, wl.Lv, plan, dev, opts)
		got, err := s.Run()
		pool.Put(s)
		if err != nil {
			t.Fatalf("batch %d: pooled run: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: pooled run on the recycled graph took %.6fs, a fresh simulator %.6fs",
				n, got.Time, want.Time)
		}
	}
	if pool.Size() != 1 {
		t.Fatalf("pool holds %d simulators, want the one recycled arena", pool.Size())
	}
}

// TestSimPoolConcurrentGetPut exercises the pool from many goroutines
// (the sweep-shard pattern); run under -race this proves the mutex
// discipline.
func TestSimPoolConcurrentGetPut(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute}).Run()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSimPool()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: LRURecompute})
				res, err := s.Run()
				if err != nil {
					errs[w] = err
					return
				}
				if res.PeakBytes != want.PeakBytes {
					errs[w] = errMismatch(res.PeakBytes, want.PeakBytes)
					return
				}
				pool.Put(s)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

type peakMismatch struct{ got, want int64 }

func errMismatch(got, want int64) error { return peakMismatch{got, want} }

func (e peakMismatch) Error() string { return "concurrent pooled peak diverged" }

// TestRegenerateOOMReturnsBuffers: a pooled run that runs out of
// memory in the middle of a regeneration returns the chain and output
// buffers it took from the arena's free lists. A Transformer's
// checkpoints plan under memory-centric recomputation regenerates on
// every backward consumer, and squeezed below its peak it runs out of
// memory inside a regeneration. After a run at the plan's own peak has
// stocked the free lists, a squeezed run leaves them holding what they
// held before it.
func TestRegenerateOOMReturnsBuffers(t *testing.T) {
	b := mkbed(t, "transformer", models.Config{BatchSize: 64})
	plan := b.baseline(t, "checkpoints")
	fits := Options{Recompute: MemoryCentric}
	peak := b.run(t, plan, fits).PeakBytes
	for k := int64(15); k >= 9; k-- {
		pool := NewSimPool()
		s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, fits)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		pool.Put(s)
		s = pool.Get(b.g, b.sched, b.lv, plan, b.dev, Options{Recompute: MemoryCentric, Capacity: peak * k / 16})
		chains, outs := len(s.chainFree), len(s.freshFree)
		res, err := s.Run()
		if err == nil || res.RecomputedOps == 0 {
			t.Fatalf("capacity %d/16 of peak: ran with %d regenerated ops and error %v; the test needs an OOM after regenerations", k, res.RecomputedOps, err)
		}
		if len(s.chainFree) != chains || len(s.freshFree) != outs {
			t.Errorf("capacity %d/16 of peak: OOM after %d regenerated ops left %d chain and %d output buffers on the free lists, want %d and %d",
				k, res.RecomputedOps, len(s.chainFree), len(s.freshFree), chains, outs)
		}
	}
}
