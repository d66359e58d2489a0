package sim

import (
	"bytes"
	"sync"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/faults"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// faultBed builds a vgg16 testbed with a tsplit plan tight enough to
// swap — so every fault class has transfers and pressure to bite on.
func faultBed(t *testing.T) (*bed, *core.Plan) {
	t.Helper()
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	cap := b.lv.Peak * 70 / 100
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev,
		core.Options{Capacity: cap, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	return b, plan
}

// faultRun runs the bed's plan under an injector with timeline and
// metrics enabled, returning the serialized trace and metrics JSON.
func faultRun(t *testing.T, b *bed, plan *core.Plan, cfg faults.Config) (Result, []byte, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	res, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{
		Capacity:        b.lv.Peak * 70 / 100,
		Recompute:       LRURecompute,
		CollectTimeline: true,
		Obs:             reg,
		Faults:          faults.New(cfg),
	}).Run()
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	var trace, metrics bytes.Buffer
	if err := WriteChromeTraceSpans(&trace, res.Timeline, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), metrics.Bytes()
}

// TestFaultDeterminismGolden is the byte-determinism gate: two runs
// with the same seed and severity must produce byte-identical traces
// and metrics JSON.
func TestFaultDeterminismGolden(t *testing.T) {
	b, plan := faultBed(t)
	cfg := faults.Config{Seed: 123, Severity: faults.DefaultSeverity}
	r1, trace1, met1 := faultRun(t, b, plan, cfg)
	r2, trace2, met2 := faultRun(t, b, plan, cfg)
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("same seed+severity produced different traces")
	}
	if !bytes.Equal(met1, met2) {
		t.Fatal("same seed+severity produced different metrics JSON")
	}
	if r1.Time != r2.Time || r1.PeakBytes != r2.PeakBytes || r1.Faults != r2.Faults {
		t.Fatal("same seed+severity produced different measurements")
	}
	// A different seed must actually change something.
	r3, _, _ := faultRun(t, b, plan, faults.Config{Seed: 124, Severity: faults.DefaultSeverity})
	if r1.Time == r3.Time && r1.Faults == r3.Faults {
		t.Fatal("different seeds produced identical runs; injector looks inert")
	}
}

// TestFaultKindsIsolated exercises each fault class alone and checks
// its designated counters (and only plausible side effects) move.
func TestFaultKindsIsolated(t *testing.T) {
	b, plan := faultBed(t)
	clean, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{
		Capacity: b.lv.Peak * 70 / 100, Recompute: LRURecompute,
	}).Run()
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	t.Run("op-noise", func(t *testing.T) {
		res, _, _ := faultRun(t, b, plan, faults.Config{Seed: 9, Severity: 0.8, Kinds: []faults.Kind{faults.OpNoise}})
		if res.Faults.OpNoiseSeconds == 0 {
			t.Fatal("no noise accounted")
		}
		if res.Faults.SwapRetries != 0 || res.Faults.CapacityEvents != 0 || res.Faults.BandwidthEvents != 0 {
			t.Fatalf("other fault classes leaked: %+v", res.Faults)
		}
		if res.SwapOutBytes != clean.SwapOutBytes || res.SwapInBytes != clean.SwapInBytes {
			t.Fatal("op noise must not change swap volumes")
		}
	})
	t.Run("bandwidth", func(t *testing.T) {
		res, _, _ := faultRun(t, b, plan, faults.Config{Seed: 9, Severity: 0.8, Kinds: []faults.Kind{faults.Bandwidth}})
		if res.Faults.BandwidthEvents == 0 || res.Faults.BandwidthExtraSeconds <= 0 {
			t.Fatalf("no degraded transfers: %+v", res.Faults)
		}
		if res.Time <= clean.Time {
			t.Fatal("degraded PCIe should cost time")
		}
	})
	t.Run("swap-fail", func(t *testing.T) {
		res, _, _ := faultRun(t, b, plan, faults.Config{Seed: 9, Severity: 0.5, Kinds: []faults.Kind{faults.SwapFail}})
		if res.Faults.SwapRetries == 0 || res.Faults.SwapRetrySeconds <= 0 {
			t.Fatalf("no retries: %+v", res.Faults)
		}
		if res.Faults.SwapExhausted != 0 && res.Faults.SwapRetries < faults.MaxSwapRetries {
			t.Fatalf("inconsistent retry accounting: %+v", res.Faults)
		}
	})
	t.Run("swap-fail-exhaustion", func(t *testing.T) {
		// Severity 1: every attempt fails, every transfer exhausts the
		// retry budget, the link resets, and the run still completes.
		res, _, _ := faultRun(t, b, plan, faults.Config{Seed: 9, Severity: 1, Kinds: []faults.Kind{faults.SwapFail}})
		if res.Faults.SwapExhausted == 0 {
			t.Fatal("severity 1 should exhaust retry budgets")
		}
		if res.Faults.SwapRetries != res.Faults.SwapExhausted*faults.MaxSwapRetries {
			t.Fatalf("every transfer should fail exactly MaxSwapRetries times: %+v", res.Faults)
		}
	})
	t.Run("capacity-shrink", func(t *testing.T) {
		res, _, _ := faultRun(t, b, plan, faults.Config{Seed: 9, Severity: 0.2, Kinds: []faults.Kind{faults.CapacityShrink}})
		if res.Faults.CapacityEvents == 0 {
			t.Fatal("no capacity events opened")
		}
		if res.PeakBytes < clean.PeakBytes {
			t.Fatal("phantom co-located blocks should raise observed pool pressure")
		}
	})
}

// TestFaultStallMetricsEmitted checks the obs wiring: fault counters
// land under their kind labels and retry stalls are attributed.
func TestFaultStallMetricsEmitted(t *testing.T) {
	b, plan := faultBed(t)
	reg := obs.NewRegistry()
	_, err := New(b.g, b.sched, b.lv, plan, b.dev, Options{
		Capacity:  b.lv.Peak * 70 / 100,
		Recompute: LRURecompute,
		Obs:       reg,
		Faults:    faults.New(faults.Config{Seed: 4, Severity: 1, Kinds: []faults.Kind{faults.SwapFail}}),
	}).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var retries, stall int64
	for _, m := range reg.Snapshot() {
		switch {
		case m.Name == "tsplit_sim_faults_injected_total" && hasLabel(m.Labels, "kind", "swap-retry"):
			retries = m.Int
		case m.Name == "tsplit_sim_stall_microseconds_total" && hasLabel(m.Labels, "cause", "fault-retry"):
			stall = m.Int
		}
	}
	if retries == 0 {
		t.Fatal("tsplit_sim_faults_injected_total{kind=swap-retry} not emitted")
	}
	if stall <= 0 {
		t.Fatal("tsplit_sim_stall_microseconds_total{cause=fault-retry} not emitted")
	}
}

func hasLabel(ls []obs.Label, k, v string) bool {
	for _, l := range ls {
		if l.Key == k && l.Value == v {
			return true
		}
	}
	return false
}

// TestConcurrentFaultedRunsRace runs many faulted simulations sharing
// one Registry and one Injector concurrently: the race detector (make
// race) must stay quiet and every run must agree byte-for-byte.
func TestConcurrentFaultedRunsRace(t *testing.T) {
	b, plan := faultBed(t)
	reg := obs.NewRegistry()
	inj := faults.New(faults.Config{Seed: 77, Severity: faults.DefaultSeverity})
	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = New(b.g, b.sched, b.lv, plan, b.dev, Options{
				Capacity:  b.lv.Peak * 70 / 100,
				Recompute: LRURecompute,
				Obs:       reg,
				Faults:    inj,
			}).Run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w].Time != results[0].Time || results[w].Faults != results[0].Faults {
			t.Fatalf("worker %d diverged from worker 0", w)
		}
	}
}
