package resilient

import (
	"strings"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/faults"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
)

func inputs(t *testing.T, model string, batch int) *prep.Prepared {
	t.Helper()
	p, err := prep.Build(model, models.Config{BatchSize: batch}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkLadderOrder asserts the rung trail is a prefix of the only
// legal descent: plan, then zero or more replans, then optionally
// swap-all — with exactly one final rung that succeeded.
func checkLadderOrder(t *testing.T, stages []Stage) {
	t.Helper()
	if len(stages) == 0 {
		t.Fatal("no stages recorded")
	}
	for i, st := range stages {
		want := "replan"
		switch {
		case i == 0:
			want = "plan"
		case i == len(stages)-1 && st.Kind == "swap-all":
			want = "swap-all"
		}
		if st.Kind != want {
			t.Fatalf("stage %d kind %q, want %q (trail %+v)", i, st.Kind, want, stages)
		}
		if i < len(stages)-1 && st.Err == "" {
			t.Fatalf("non-final stage %d succeeded but ladder continued: %+v", i, stages)
		}
	}
	if last := stages[len(stages)-1]; last.Err != "" {
		t.Fatalf("final stage carries an error: %+v", last)
	}
}

// TestLadderCleanRunNotDegraded: with no faults and ample capacity the
// first rung wins and nothing is marked degraded.
func TestLadderCleanRunNotDegraded(t *testing.T) {
	in := inputs(t, "vgg16", 64)
	out, err := Run(in, Config{Planner: core.Options{CollectReport: true}})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if out.Degraded || len(out.Stages) != 1 || out.Stages[0].Kind != "plan" {
		t.Fatalf("clean run should win on the first rung: %+v", out.Stages)
	}
	if out.Report == nil || len(out.Report.Degradations) != 0 {
		t.Fatalf("clean run report: %+v", out.Report)
	}
	checkLadderOrder(t, out.Stages)
}

// TestLadderPlanFailureFallsBackToSwapAll: a margin so large that the
// budget drops below the resident floor makes planning itself fail;
// the ladder must skip the (strictly harder) replans and land on the
// swap-all baseline instead of aborting.
func TestLadderPlanFailureFallsBackToSwapAll(t *testing.T) {
	in := inputs(t, "vgg16", 64)
	reg := obs.NewRegistry()
	out, err := Run(in, Config{
		Planner: core.Options{SafetyMargin: 0.89, CollectReport: true, Obs: reg},
	})
	if err != nil {
		t.Fatalf("ladder aborted: %v", err)
	}
	if !out.Degraded {
		t.Fatal("plan failure must mark the run degraded")
	}
	if len(out.Stages) != 2 {
		t.Fatalf("plan failure should break straight to swap-all, got %+v", out.Stages)
	}
	if out.Stages[0].Kind != "plan" || out.Stages[0].Err == "" {
		t.Fatalf("first stage should be a failed plan: %+v", out.Stages[0])
	}
	if out.Stages[1].Kind != "swap-all" {
		t.Fatalf("fallback stage: %+v", out.Stages[1])
	}
	checkLadderOrder(t, out.Stages)
	if out.Report == nil || len(out.Report.Degradations) != 1 ||
		!strings.HasPrefix(out.Report.Degradations[0], "plan margin=0.89") {
		t.Fatalf("report degradations: %+v", out.Report)
	}
	if vs := core.VerifyAt(out.Plan, in.G, in.Sched, in.Lv, in.Dev.MemBytes); len(vs) != 0 {
		t.Fatalf("fallback plan violates invariants: %v", vs)
	}
	var degraded int64
	for _, m := range reg.Snapshot() {
		if m.Name == "tsplit_resilient_degraded_total" {
			degraded += m.Int
		}
	}
	if degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", degraded)
	}
}

// TestLadderInjectedOOMEscalatesInOrder: capacity-shrink faults at a
// tight budget OOM the first rung; the ladder must retry with
// escalating margins in order and finish without an abort.
func TestLadderInjectedOOMEscalatesInOrder(t *testing.T) {
	in := inputs(t, "vgg16", 96)
	cap := in.Lv.Peak * 65 / 100
	out, err := Run(in, Config{
		Faults:  faults.Config{Seed: 7, Severity: 0.9, Kinds: []faults.Kind{faults.CapacityShrink}},
		Planner: core.Options{Capacity: cap},
	})
	if err != nil {
		t.Fatalf("ladder aborted: %v", err)
	}
	checkLadderOrder(t, out.Stages)
	if !out.Degraded {
		t.Fatalf("expected the first rung to OOM under capacity shrink; stages %+v", out.Stages)
	}
	if out.Stages[0].Err == "" || !strings.Contains(out.Stages[0].Err, "injected capacity shrink") {
		t.Fatalf("first rung should fail with an injected OOM: %+v", out.Stages[0])
	}
	if vs := core.VerifyAt(out.Plan, in.G, in.Sched, in.Lv, cap); len(vs) != 0 {
		t.Fatalf("surviving plan violates invariants: %v", vs)
	}
}

// TestLadderNeverAbortsAtFullSeverity sweeps every fault class at
// severity 1 at device capacity: transients must never abort training
// — the ladder must end at some rung, not an error. (A genuinely
// undersized budget is the one legitimate abort, tested separately by
// the capacity-wall CLI path.)
func TestLadderNeverAbortsAtFullSeverity(t *testing.T) {
	in := inputs(t, "vgg16", 64)
	for seed := uint64(1); seed <= 5; seed++ {
		out, err := Run(in, Config{
			Faults: faults.Config{Seed: seed, Severity: 1},
		})
		if err != nil {
			t.Fatalf("seed %d: ladder aborted: %v", seed, err)
		}
		checkLadderOrder(t, out.Stages)
	}
}

// TestLadderDeterministicTrail: the same seed must walk the same rungs
// and land on identical measurements — the ladder replans, it does not
// reroll the environment.
func TestLadderDeterministicTrail(t *testing.T) {
	in := inputs(t, "vgg16", 96)
	cfg := Config{
		Faults:  faults.Config{Seed: 7, Severity: 0.9},
		Planner: core.Options{Capacity: in.Lv.Peak * 65 / 100},
	}
	a, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("trail length diverged: %+v vs %+v", a.Stages, b.Stages)
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			t.Fatalf("stage %d diverged: %+v vs %+v", i, a.Stages[i], b.Stages[i])
		}
	}
	if a.Result.Time != b.Result.Time || a.Result.PeakBytes != b.Result.PeakBytes ||
		a.Result.Faults != b.Result.Faults {
		t.Fatal("same seed produced different measurements")
	}
}
