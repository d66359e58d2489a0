package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// TestPlanReportConsistency checks the introspection record against the
// plan it describes and the metrics emitted alongside it.
func TestPlanReportConsistency(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	capacity := tb.lv.Peak * 55 / 100
	reg := obs.NewRegistry()
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: capacity, FragmentationReserve: -1, CollectReport: true, Obs: reg})
	p, err := pl.Plan()
	if err != nil {
		t.Fatal(err)
	}
	r := pl.Report()
	if r == nil {
		t.Fatal("CollectReport set but Report() is nil")
	}
	if len(r.Decisions) == 0 {
		t.Fatal("plan under pressure produced no decisions")
	}
	if r.CapacityBytes != capacity {
		t.Fatalf("capacity %d != %d", r.CapacityBytes, capacity)
	}
	if r.InitialPeakBytes <= capacity {
		t.Fatalf("initial peak %d should exceed capacity %d", r.InitialPeakBytes, capacity)
	}
	if r.FinalPeakBytes > capacity {
		t.Fatalf("final peak %d exceeds capacity %d", r.FinalPeakBytes, capacity)
	}
	if r.FinalPeakBytes != p.PredictedPeak {
		t.Fatalf("report final peak %d != plan predicted peak %d", r.FinalPeakBytes, p.PredictedPeak)
	}
	if r.CandidatesScored <= 0 {
		t.Fatal("no candidates scored recorded")
	}
	kinds := map[string]bool{"swap": true, "recompute": true, "split": true}
	for i, d := range r.Decisions {
		if d.Iter != i {
			t.Fatalf("decision %d has iter %d", i, d.Iter)
		}
		if !kinds[d.Kind] {
			t.Fatalf("decision %d has unknown kind %q", i, d.Kind)
		}
		if d.OverBytes <= 0 || d.PeakBefore <= capacity {
			t.Fatalf("decision %d does not describe a bottleneck: %+v", i, d)
		}
		if d.PeakAfter <= 0 {
			t.Fatalf("decision %d PeakAfter not filled: %+v", i, d)
		}
		if d.Candidates <= 0 || d.DeltaMBytes <= 0 {
			t.Fatalf("decision %d has empty candidate pool or ΔM: %+v", i, d)
		}
		if d.BottleneckOp == "" || d.Tensor == "" && d.Op == "" {
			t.Fatalf("decision %d names nothing: %+v", i, d)
		}
	}
	// The last decision's PeakAfter is the scan that ended the loop.
	if last := r.Decisions[len(r.Decisions)-1]; last.PeakAfter > capacity {
		t.Fatalf("last decision left peak %d over capacity", last.PeakAfter)
	}

	counts := p.Counts()
	if got := reg.Counter("tsplit_planner_plans_total"); got != 1 {
		t.Fatalf("plans_total = %d", got)
	}
	if got := reg.Counter("tsplit_planner_iterations_total"); got != int64(len(r.Decisions)) {
		t.Fatalf("iterations_total %d != %d decisions", got, len(r.Decisions))
	}
	if got := reg.Counter("tsplit_planner_candidates_scored_total"); got != r.CandidatesScored {
		t.Fatalf("candidates_scored_total %d != report %d", got, r.CandidatesScored)
	}
	if got := reg.Counter("tsplit_planner_decisions_total", obs.L("kind", "swap")); got != int64(counts.Swap) {
		t.Fatalf("decisions_total{swap} %d != plan %d", got, counts.Swap)
	}
	if got := reg.Counter("tsplit_planner_decisions_total", obs.L("kind", "split")); got != int64(counts.SplitOps) {
		t.Fatalf("decisions_total{split} %d != plan %d", got, counts.SplitOps)
	}
	if got := reg.Counter("tsplit_planner_planned_bytes_total", obs.L("kind", "swap")); got != counts.SwapBytes {
		t.Fatalf("planned_bytes_total{swap} %d != plan %d", got, counts.SwapBytes)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back PlanReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(back.Decisions) != len(r.Decisions) {
		t.Fatalf("round-trip lost decisions: %d != %d", len(back.Decisions), len(r.Decisions))
	}
	if s := r.Summary(); !strings.Contains(s, "plan report") {
		t.Fatalf("summary missing header: %q", s)
	}
}

// TestObservationDoesNotPerturbPlan pins that collecting a report and
// recording metrics changes nothing about the plan itself.
func TestObservationDoesNotPerturbPlan(t *testing.T) {
	tb := newTestbed(t, "resnet50", models.Config{BatchSize: 48})
	capacity := tb.lv.Peak * 55 / 100
	plain := tb.plan(t, Options{Capacity: capacity, FragmentationReserve: -1})
	observed, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: capacity, FragmentationReserve: -1, CollectReport: true, Obs: obs.NewRegistry()}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Describe() != observed.Describe() {
		t.Fatal("observation changed the plan")
	}
	if plain.PredictedTime != observed.PredictedTime || plain.PredictedPeak != observed.PredictedPeak {
		t.Fatal("observation changed the plan's predictions")
	}
}

// TestPlanReportSerialParallelEquivalence extends the plan-equivalence
// guarantee to the decision log: the serial reference and the
// incremental/parallel path must record the same decision sequence.
// Only the chain-refresh accounting may differ (that is the point of
// the incremental path).
func TestPlanReportSerialParallelEquivalence(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	capacity := tb.lv.Peak * 60 / 100
	reports := make([]*PlanReport, 2)
	for i, serial := range []bool{false, true} {
		pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
			Options{Capacity: capacity, FragmentationReserve: -1, CollectReport: true})
		run := pl.Plan
		if serial {
			run = pl.planSerial
		}
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		reports[i] = pl.Report()
	}
	norm := func(r *PlanReport) []PlanDecision {
		ds := append([]PlanDecision(nil), r.Decisions...)
		for i := range ds {
			ds[i].ChainsRederived, ds[i].ChainsTracked = 0, 0
		}
		return ds
	}
	a, _ := json.Marshal(norm(reports[0]))
	b, _ := json.Marshal(norm(reports[1]))
	if !bytes.Equal(a, b) {
		t.Fatalf("decision logs diverge between parallel and serial paths:\n%s\n---\n%s", a, b)
	}
	if reports[1].ChainsSkipped != 0 {
		t.Fatalf("serial path reported %d skipped chains", reports[1].ChainsSkipped)
	}
	if reports[0].ChainsRederived > reports[1].ChainsRederived {
		t.Fatalf("incremental path re-derived more chains (%d) than the full rebuild (%d)",
			reports[0].ChainsRederived, reports[1].ChainsRederived)
	}
}

// TestPlannerFailureMetrics pins the failure counter on the infeasible
// path.
func TestPlannerFailureMetrics(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	reg := obs.NewRegistry()
	_, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: 1 << 20, FragmentationReserve: -1, Obs: reg}).Plan()
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("expected ErrInfeasible, got %v", err)
	}
	if got := reg.Counter("tsplit_planner_failures_total", obs.L("reason", "infeasible")); got != 1 {
		t.Fatalf("failures_total{infeasible} = %d", got)
	}
	if got := reg.Counter("tsplit_planner_plans_total"); got != 0 {
		t.Fatalf("failed plan counted as success: %d", got)
	}
}

// TestConcurrentPlansSharedRegistry runs several planners against one
// registry at once — the shape tsplit-bench uses — and checks no
// updates are lost. Run under -race by make ci.
func TestConcurrentPlansSharedRegistry(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 32})
	capacity := tb.lv.Peak * 60 / 100
	reg := obs.NewRegistry()
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
				Options{Capacity: capacity, FragmentationReserve: -1, Obs: reg}).Plan()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("tsplit_planner_plans_total"); got != n {
		t.Fatalf("plans_total = %d, want %d", got, n)
	}
}
