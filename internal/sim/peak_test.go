package sim

import (
	"fmt"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/faults"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// These tests drive Run() and PredictPeak() on fresh simulators across
// the model zoo × every policy, plus over-committed and fault-injected
// configurations, and hold the two to the same feasibility, the same
// OOM string and the same peak.

func peakPlan(t *testing.T, b *bed, policy string, cap int64) *core.Plan {
	t.Helper()
	if policy == "tsplit" {
		plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev,
			core.Options{Capacity: cap, FragmentationReserve: -1}).Plan()
		if err != nil {
			t.Skipf("tsplit planning infeasible: %v", err)
		}
		return plan
	}
	plan, err := baselines.Registry[policy](baselines.Inputs{
		G: b.g, Sched: b.sched, Lv: b.lv, Prof: b.prof, Dev: b.dev})
	if err != nil {
		// Some baselines don't apply to every architecture (the conv
		// offloaders need convolution layers); nothing to compare.
		t.Skipf("%s inapplicable: %v", policy, err)
	}
	return plan
}

// checkPeakMatchesRun runs the plan on two fresh simulators, one per
// entry point, with options from mk (called twice so a fault injector
// is not shared).
func checkPeakMatchesRun(t *testing.T, b *bed, plan *core.Plan, mk func() Options) {
	t.Helper()
	res, runErr := New(b.g, b.sched, b.lv, plan, b.dev, mk()).Run()
	peak, peakErr := New(b.g, b.sched, b.lv, plan, b.dev, mk()).PredictPeak()
	if (runErr == nil) != (peakErr == nil) {
		t.Fatalf("feasibility diverges: run err=%v, peak err=%v", runErr, peakErr)
	}
	if runErr != nil {
		if runErr.Error() != peakErr.Error() {
			t.Fatalf("OOM strings diverge:\nrun:  %s\npeak: %s", runErr, peakErr)
		}
		return
	}
	if peak != res.PeakBytes {
		t.Fatalf("peak diverges: PredictPeak=%d Run=%d", peak, res.PeakBytes)
	}
}

func TestPredictPeakMatchesRunAcrossZoo(t *testing.T) {
	zoo := []struct {
		model string
		batch int
	}{
		{"vgg16", 256},
		{"resnet50", 256},
		{"bert-large", 64},
	}
	policies := []string{"base", "vdnn-conv", "vdnn-all", "checkpoints",
		"superneurons", "zero-offload", "fairscale-offload", "tsplit"}
	for _, w := range zoo {
		b := mkbed(t, w.model, models.Config{BatchSize: w.batch})
		for _, policy := range policies {
			t.Run(w.model+"/"+policy, func(t *testing.T) {
				plan := peakPlan(t, b, policy, b.dev.MemBytes)
				checkPeakMatchesRun(t, b, plan, func() Options {
					return Options{Recompute: LRURecompute}
				})
			})
		}
	}
}

// TestPredictPeakUnderPressure forces the simulator through its
// degradation machinery — LRU eviction, the pressure valve, and
// compaction.
func TestPredictPeakUnderPressure(t *testing.T) {
	for _, tc := range []struct {
		model string
		batch int
		pct   int64 // capacity as percent of the unmanaged peak
	}{
		{"vgg16", 256, 70},
		{"vgg16", 256, 45},
		{"resnet50", 256, 70},
	} {
		t.Run(fmt.Sprintf("%s/%d%%", tc.model, tc.pct), func(t *testing.T) {
			b := mkbed(t, tc.model, models.Config{BatchSize: tc.batch})
			cap := b.lv.Peak * tc.pct / 100
			plan := peakPlan(t, b, "tsplit", cap)
			checkPeakMatchesRun(t, b, plan, func() Options {
				return Options{Capacity: cap, Recompute: LRURecompute}
			})
		})
	}
}

// TestPredictPeakWithFaults checks the peak under injection: capacity
// hogs hold pool memory and move it.
func TestPredictPeakWithFaults(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 256})
	cap := b.lv.Peak * 70 / 100
	plan := peakPlan(t, b, "tsplit", cap)
	for _, seed := range []uint64{7, 123} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkPeakMatchesRun(t, b, plan, func() Options {
				return Options{
					Capacity:  cap,
					Recompute: LRURecompute,
					Faults:    faults.New(faults.Config{Seed: seed, Severity: faults.DefaultSeverity}),
				}
			})
		})
	}
}

// TestPredictPeakPooled interleaves PredictPeak and Run on a recycled
// arena, checking neither contaminates the other.
func TestPredictPeakPooled(t *testing.T) {
	b := mkbed(t, "resnet50", models.Config{BatchSize: 256})
	cap := b.lv.Peak * 70 / 100
	plan := peakPlan(t, b, "tsplit", cap)
	opts := Options{Capacity: cap, Recompute: LRURecompute}
	want, err := New(b.g, b.sched, b.lv, plan, b.dev, opts).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	pool := NewSimPool()
	for i := 0; i < 3; i++ {
		s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, opts)
		peak, err := s.PredictPeak()
		if err != nil {
			t.Fatalf("pooled PredictPeak: %v", err)
		}
		if peak != want.PeakBytes {
			t.Fatalf("pooled PredictPeak=%d, Run=%d", peak, want.PeakBytes)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("pooled Run after PredictPeak: %v", err)
		}
		if res.PeakBytes != want.PeakBytes || res.Time != want.Time {
			t.Fatalf("Run after PredictPeak diverges: peak %d vs %d, time %v vs %v",
				res.PeakBytes, want.PeakBytes, res.Time, want.Time)
		}
		pool.Put(s)
	}
}

// TestPredictPeakIsSilent holds PredictPeak to its contract on a
// simulator with every sink set: nothing reaches Obs, Trace or Flight
// (not even the OOM event of an over-committed run), no timeline is
// built, Opts comes back as it was, and the answer is Run()'s.
func TestPredictPeakIsSilent(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	plan := b.baseline(t, "vdnn-all")
	for _, tc := range []struct {
		name string
		cap  int64
	}{
		{"fits", 0},
		{"oom", 1 << 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(nil)
			fl := obs.NewFlight(16, nil)
			s := New(b.g, b.sched, b.lv, plan, b.dev, Options{
				Capacity: tc.cap, Obs: reg, Trace: tr, Flight: fl, CollectTimeline: true,
			})
			before := s.Opts
			peak, peakErr := s.PredictPeak()
			if s.Opts != before {
				t.Fatalf("Opts changed: %+v -> %+v", before, s.Opts)
			}
			if n := len(reg.Snapshot()); n != 0 {
				t.Fatalf("%d metric series emitted", n)
			}
			if n := len(tr.Tree()); n != 0 {
				t.Fatalf("%d root spans emitted", n)
			}
			if n := fl.Len(); n != 0 {
				t.Fatalf("%d flight events emitted", n)
			}
			if n := len(s.res.Timeline); n != 0 {
				t.Fatalf("timeline has %d points", n)
			}
			res, runErr := s.Run()
			if (runErr == nil) != (peakErr == nil) || (runErr != nil && runErr.Error() != peakErr.Error()) {
				t.Fatalf("errors diverge: run err=%v, peak err=%v", runErr, peakErr)
			}
			if (tc.name == "oom") != (runErr != nil) {
				t.Fatalf("case %s: run err=%v", tc.name, runErr)
			}
			if runErr == nil && peak != res.PeakBytes {
				t.Fatalf("PredictPeak=%d, Run=%d", peak, res.PeakBytes)
			}
			if len(reg.Snapshot()) == 0 || len(tr.Tree()) == 0 {
				t.Fatal("Run after PredictPeak emitted nothing: sinks were not restored")
			}
		})
	}
}
