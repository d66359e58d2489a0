package tsplit_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tsplit"
	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/sim"
)

func TestLoadAndRun(t *testing.T) {
	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 32}, tsplit.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	if w.BaselinePeakBytes() <= 0 || w.IdealTime() <= 0 {
		t.Fatal("workload not profiled")
	}
	plan, err := w.Plan(tsplit.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput <= 0 || rep.PeakGiB <= 0 {
		t.Fatalf("report %+v incomplete", rep)
	}
}

func TestLoadUnknownModel(t *testing.T) {
	if _, err := tsplit.Load("nope", tsplit.ModelConfig{}, tsplit.TitanRTX); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestModelAndBaselineLists(t *testing.T) {
	ms := tsplit.Models()
	if len(ms) < 6 {
		t.Fatalf("model zoo too small: %v", ms)
	}
	bs := baselines.Names
	if len(bs) != 7 {
		t.Fatalf("baselines: %v", bs)
	}
}

func TestPlanBaseline(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 16}, tsplit.TitanRTX)
	for _, pol := range baselines.Names {
		if _, err := w.PlanBaseline(pol); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	if _, err := w.PlanBaseline("nope"); err == nil {
		t.Fatal("unknown baseline must fail")
	}
}

// TestRunMatchesPolicyTable: Run simulates a plan with the recompute
// strategy of the policy that made it, so it measures a baseline's plan
// as the evaluation's plan → trial-run loop does — memory-centric for
// checkpoints, LRU-hybrid for SuperNeurons — and RunPolicy agrees.
func TestRunMatchesPolicyTable(t *testing.T) {
	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 128}, tsplit.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"checkpoints", "superneurons"} {
		plan, err := w.PlanBaseline(pol)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := w.Run(plan)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		_, want, err := w.Prepared.RunPolicy(pol, core.Options{}, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if rep.Raw.PeakBytes != want.PeakBytes || rep.IterationSeconds != want.Time {
			t.Fatalf("%s: Run measures peak %d, %gs; the policy table's run %d, %gs", pol, rep.Raw.PeakBytes, rep.IterationSeconds, want.PeakBytes, want.Time)
		}
		_, rp, err := w.RunPolicy(pol, tsplit.PlanOptions{})
		if err != nil || rp.Raw.PeakBytes != want.PeakBytes || rp.IterationSeconds != want.Time {
			t.Fatalf("%s: RunPolicy measures peak %d, %gs (%v); want %d, %gs", pol, rp.Raw.PeakBytes, rp.IterationSeconds, err, want.PeakBytes, want.Time)
		}
	}
}

func TestRunReportsOOM(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 512}, tsplit.TitanRTX)
	plan, _ := w.PlanBaseline("base")
	if _, err := w.Run(plan); err == nil {
		t.Fatal("vgg16 batch 512 unmanaged must OOM on 24 GB")
	}
}

func TestAutoPlanBeatsPlainPlanOnHardCases(t *testing.T) {
	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 192}, tsplit.GTX1080Ti)
	if err != nil {
		t.Fatal(err)
	}
	plan, rep, err := w.RunPolicy("tsplit", tsplit.PlanOptions{})
	if err != nil {
		t.Fatalf("autoplan: %v", err)
	}
	if rep.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if plan.Counts().Swap+plan.Counts().Recompute == 0 {
		t.Fatal("an 11 GB device must force evictions at batch 192")
	}
}

// TestAutoPlanKeepsPlanOptions holds RunPolicy("tsplit", …) to the
// options Plan honours: a 20% safety margin keeps the plan's predicted peak within
// 80% of the device, and the tracer and flight ring see the planner.
func TestAutoPlanKeepsPlanOptions(t *testing.T) {
	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 128}, tsplit.GTX1080Ti)
	if err != nil {
		t.Fatal(err)
	}
	tr, fl := tsplit.NewTracer(), tsplit.NewFlight(0)
	plan, _, err := w.RunPolicy("tsplit", tsplit.PlanOptions{SafetyMargin: 0.2, Trace: tr, Flight: fl})
	if err != nil {
		t.Fatalf("autoplan: %v", err)
	}
	if limit := w.Dev.MemBytes * 80 / 100; plan.PredictedPeak > limit {
		t.Fatalf("predicted peak %d exceeds 80%% of capacity (%d)", plan.PredictedPeak, limit)
	}
	if roots := tr.Tree(); len(roots) == 0 || roots[0].Name != "planner.plan" {
		t.Fatal("RunPolicy recorded no planner span")
	}
	if fl.Len() == 0 {
		t.Fatal("RunPolicy recorded no flight event")
	}
}

func TestDisableSplitAblation(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 96}, tsplit.GTX1080Ti)
	plan, _, err := w.RunPolicy("tsplit", tsplit.PlanOptions{DisableSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Splits) != 0 {
		t.Fatal("ablation plan contains splits")
	}
}

func TestAugmentExport(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 96}, tsplit.GTX1080Ti)
	plan, _, err := w.RunPolicy("tsplit", tsplit.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := w.Augment(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(ag.G.Ops) < len(w.G.Ops) {
		t.Fatal("augmented graph lost operators")
	}
	if !strings.Contains(plan.Describe(), "MiB") {
		t.Fatal("describe output unexpected")
	}
}

// TestObservabilitySurface exercises the full public observability
// pipeline — PlanWithReport, Observe, WithTimeline, WriteTraceSpans,
// Prometheus exposition — on the two acceptance models.
func TestObservabilitySurface(t *testing.T) {
	for _, tc := range []struct {
		model string
		batch int
	}{
		{"vgg16", 64},
		{"bert-large", 8},
	} {
		w, err := tsplit.Load(tc.model, tsplit.ModelConfig{BatchSize: tc.batch}, tsplit.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		reg := tsplit.NewRegistry()
		cap := w.BaselinePeakBytes() * 65 / 100
		plan, report, err := w.PlanWithReport(tsplit.PlanOptions{CapacityBytes: cap, Observe: reg})
		if err != nil {
			t.Fatalf("%s: %v", tc.model, err)
		}
		if report == nil || len(report.Decisions) == 0 {
			t.Fatalf("%s: empty plan report under a 65%% budget", tc.model)
		}
		if got := reg.Counter("tsplit_planner_plans_total"); got != 1 {
			t.Fatalf("%s: plans_total = %d", tc.model, got)
		}

		rep, err := w.Run(plan, tsplit.Observe(reg), tsplit.WithTimeline())
		if err != nil {
			t.Fatalf("%s: %v", tc.model, err)
		}
		if got := reg.Counter("tsplit_sim_runs_total"); got != 1 {
			t.Fatalf("%s: runs_total = %d", tc.model, got)
		}
		if len(rep.Raw.Timeline) == 0 {
			t.Fatalf("%s: WithTimeline collected nothing", tc.model)
		}

		var trace bytes.Buffer
		if err := tsplit.WriteTraceSpans(&trace, rep.Raw, nil); err != nil {
			t.Fatalf("%s: %v", tc.model, err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(trace.Bytes(), &decoded); err != nil {
			t.Fatalf("%s: invalid trace JSON: %v", tc.model, err)
		}
		if _, ok := decoded["traceEvents"]; !ok {
			t.Fatalf("%s: trace missing traceEvents", tc.model)
		}

		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"tsplit_planner_plans_total", "tsplit_sim_swap_bytes_total"} {
			if !strings.Contains(prom.String(), want) {
				t.Fatalf("%s: exposition missing %s", tc.model, want)
			}
		}

		var rj bytes.Buffer
		if err := report.WriteJSON(&rj); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(rj.Bytes()) {
			t.Fatalf("%s: plan report is not valid JSON", tc.model)
		}
	}
}

// TestWriteTraceWithoutTimeline pins the guidance error.
func TestWriteTraceWithoutTimeline(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 16}, tsplit.TitanRTX)
	plan, err := w.Plan(tsplit.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = tsplit.WriteTraceSpans(&buf, rep.Raw, nil)
	if err == nil || !strings.Contains(err.Error(), "WithTimeline") {
		t.Fatalf("WriteTraceSpans with neither a timeline nor spans: err = %v, want the WithTimeline guidance", err)
	}
}

func TestFromGraphCustomModel(t *testing.T) {
	w, _ := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 8}, tsplit.TitanRTX)
	// Re-wrap the same graph via FromGraph.
	w2, err := tsplit.FromGraph("custom", w.G, tsplit.V100, tsplit.ModelConfig{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if w2.BaselinePeakBytes() != w.BaselinePeakBytes() {
		t.Fatal("same graph, different peak")
	}
}
