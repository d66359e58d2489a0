package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/obs"
)

// TestForEachCoversAllIndices checks that forEach visits every index
// exactly once and joins its workers: the call count is read right
// after forEach returns, so a worker still running then (a missing
// wg.Wait) shows up as a short count. GOMAXPROCS is forced to 4 so
// the goroutine path runs even on a 1-CPU machine, where forEach
// would otherwise take its inline loop.
func TestForEachCoversAllIndices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 3, 100} {
		var hits atomic.Int64
		seen := make([]atomic.Bool, n)
		new(Sweep).forEach(n, func(i int) {
			if seen[i].Swap(true) {
				t.Errorf("n=%d: index %d visited twice", n, i)
			}
			hits.Add(1)
		})
		if int(hits.Load()) != n {
			t.Fatalf("n=%d: %d calls", n, hits.Load())
		}
	}
}

func TestFirstError(t *testing.T) {
	if firstError([]error{nil, nil}) != nil {
		t.Fatal("nil slice should give nil")
	}
	a, b := errors.New("a"), errors.New("b")
	if got := firstError([]error{nil, a, b}); got != a {
		t.Fatalf("firstError = %v, want lowest-index error", got)
	}
}

// TestForEachObserved checks the per-cell instrumentation: with a
// Registry as the Sweep's Obs, a fan-out records one cell count and
// one duration sample per index, concurrently (run under -race).
func TestForEachObserved(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	reg := obs.NewRegistry()
	s := Sweep{Obs: reg}

	const n = 64
	var hits atomic.Int64
	s.forEach(n, func(i int) { hits.Add(1) })
	if hits.Load() != n {
		t.Fatalf("%d calls for %d cells", hits.Load(), n)
	}
	if got := reg.Counter("tsplit_experiments_cells_total"); got != n {
		t.Fatalf("cells_total = %d, want %d", got, n)
	}
	h := reg.Histogram("tsplit_experiments_cell_seconds")
	if h.Count != n {
		t.Fatalf("cell_seconds count = %d, want %d", h.Count, n)
	}
}

// TestConcurrentSweepsDeterministic forces real fan-out (the container
// may have GOMAXPROCS=1, where forEach degenerates to a sequential
// loop) and checks that a table and a figure assembled from concurrent
// cells are identical across runs — i.e. independent of goroutine
// completion order.
func TestConcurrentSweepsDeterministic(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	small := device.TitanRTX
	small.MemBytes = 6 << 30

	var s Sweep
	t1 := s.Table4MaxSampleScale(small, 48)
	t2 := s.Table4MaxSampleScale(small, 48)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("Table IV not deterministic:\n%s\nvs\n%s", t1.Render(), t2.Render())
	}
	if t1.Get("vgg16", "base") <= 0 {
		t.Fatal("base cannot train vgg16 at all")
	}

	rows1, err := s.Fig2bOverheadPCIe(device.TitanRTX, "superneurons")
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := s.Fig2bOverheadPCIe(device.TitanRTX, "superneurons")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows1, rows2) {
		t.Fatal("Fig. 2(b) rows not deterministic")
	}
}
