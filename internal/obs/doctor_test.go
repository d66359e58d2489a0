package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPhaseStats(t *testing.T) {
	spans := []*SpanNode{
		{Name: "planner.plan", StartMicros: 0, DurMicros: 100, Children: []*SpanNode{
			{Name: "planner.fold", StartMicros: 10, DurMicros: 30},
			{Name: "planner.fold", StartMicros: 50, DurMicros: 10},
			{Name: "planner.finalize", StartMicros: 90, DurMicros: 5},
		}},
		{Name: "sim.run", StartMicros: 200, DurMicros: -1, Children: []*SpanNode{
			{Name: "sim.op", StartMicros: 200, DurMicros: 7},
		}},
	}
	stats := phaseStats(spans)
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	fold := byName["planner.fold"]
	if fold.Count != 2 || fold.TotalMicros != 40 || fold.P50Micros != 10 || fold.MaxMicros != 30 {
		t.Fatalf("fold = %+v", fold)
	}
	// Root total counts only ended roots (100); fold share is 40%.
	if fold.Pct != 40 {
		t.Fatalf("fold.Pct = %v", fold.Pct)
	}
	run := byName["sim.run"]
	if run.Count != 1 || run.Open != 1 || run.TotalMicros != 0 {
		t.Fatalf("open root = %+v", run)
	}
	// Ordering: largest total first.
	if stats[0].Name != "planner.plan" || stats[1].Name != "planner.fold" {
		t.Fatalf("order = %v, %v", stats[0].Name, stats[1].Name)
	}
}

func TestDiagnoseFromDump(t *testing.T) {
	reg := NewRegistry()
	reg.Add("tsplit_planner_plans_total", 1)
	reg.Add("tsplit_planner_iterations_total", 25)
	reg.Add("tsplit_sim_stall_microseconds_total", 900, L("cause", "alloc"))
	reg.Add("tsplit_sim_stall_microseconds_total", 100, L("cause", "input"))

	dump := &Dump{
		Reason:        "escalation",
		DroppedEvents: 2,
		Events: []Event{
			{Seq: 2, Kind: "plan.decision", Msg: "swap t1"},
			{Seq: 3, Kind: "plan.decision", Msg: "split t2"},
			{Seq: 4, Kind: "ladder.escalate", Msg: "OOM at margin 0"},
		},
		Metrics: reg.Snapshot(),
		Spans: []*SpanNode{
			{Name: "planner.plan", StartMicros: 0, DurMicros: 1000},
		},
	}
	diag := Diagnose(dump, nil)
	if diag.Reason != "escalation" || diag.DroppedEvents != 2 {
		t.Fatalf("header = %+v", diag)
	}
	if len(diag.Stalls) != 2 || diag.Stalls[0].Cause != "alloc" || diag.Stalls[0].Pct != 90 {
		t.Fatalf("stalls = %+v", diag.Stalls)
	}
	if len(diag.EventCounts) != 2 || diag.EventCounts[0] != (EventCount{Kind: "ladder.escalate", Count: 1}) {
		t.Fatalf("event counts = %+v", diag.EventCounts)
	}
	if len(diag.LastEvents) != 3 {
		t.Fatalf("last events = %+v", diag.LastEvents)
	}

	out := diag.Render()
	for _, want := range []string{
		"dump reason: escalation",
		"planner.plan",
		"alloc",
		"ladder.escalate",
		"(2 older events overwritten)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}

	var buf bytes.Buffer
	if err := diag.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"cause": "alloc"`) {
		t.Fatalf("JSON missing the stall attribution:\n%s", buf.String())
	}
}

func TestDiagnoseRegressions(t *testing.T) {
	base := &Dump{
		Metrics: []Metric{
			{Name: "tsplit_sim_stall_microseconds_total", Kind: "counter", Labels: []Label{L("cause", "alloc")}, Int: 100},
			{Name: "tsplit_planner_plans_total", Kind: "counter", Int: 5},
		},
		Spans: []*SpanNode{{Name: "planner.plan", DurMicros: 1000}},
	}
	cur := &Dump{
		Metrics: []Metric{
			{Name: "tsplit_sim_stall_microseconds_total", Kind: "counter", Labels: []Label{L("cause", "alloc")}, Int: 300},
			{Name: "tsplit_planner_plans_total", Kind: "counter", Int: 5},
			{Name: "tsplit_new_metric_total", Kind: "counter", Int: 9}, // no baseline: skipped
		},
		Spans: []*SpanNode{{Name: "planner.plan", DurMicros: 1500}},
	}
	diag := Diagnose(cur, base)
	if len(diag.Regressions) != 2 {
		t.Fatalf("regressions = %+v", diag.Regressions)
	}
	top := diag.Regressions[0]
	if top.Name != "tsplit_sim_stall_microseconds_total{cause=alloc}" || top.Pct != 200 {
		t.Fatalf("top regression = %+v", top)
	}
	if diag.Regressions[1].Name != "phase:planner.plan total_us" || diag.Regressions[1].Pct != 50 {
		t.Fatalf("phase regression = %+v", diag.Regressions[1])
	}
	if !strings.Contains(diag.Render(), "Top regressions vs baseline") {
		t.Fatalf("Render missing regression section")
	}
}

func TestDiagnoseEmptyDump(t *testing.T) {
	diag := Diagnose(&Dump{}, nil)
	if out := diag.Render(); !strings.Contains(out, "nothing to diagnose") {
		t.Fatalf("empty render = %q", out)
	}
}

// TestParsePrometheusRoundTrip feeds WritePrometheus output back
// through ParsePrometheus and checks the snapshot survives: exact
// counters, gauges, and reassembled (de-cumulated) histograms.
func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("tsplit_rt_ops_total", "ops")
	r.Add("tsplit_rt_ops_total", 7, L("kind", "swap"))
	r.Add("tsplit_rt_ops_total", 2, L("kind", "re\"comp"))
	r.Set("tsplit_rt_gauge", 1.5)
	r.SetBuckets("tsplit_rt_lat_seconds", []float64{0.1, 1})
	r.Observe("tsplit_rt_lat_seconds", 0.05)
	r.Observe("tsplit_rt_lat_seconds", 0.5)
	r.Observe("tsplit_rt_lat_seconds", 99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	ms, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ninput:\n%s", err, buf.String())
	}
	if got := findCounter(ms, "tsplit_rt_ops_total", L("kind", "swap")); got != 7 {
		t.Fatalf("swap counter = %d", got)
	}
	if got := findCounter(ms, "tsplit_rt_ops_total", L("kind", `re"comp`)); got != 2 {
		t.Fatalf("escaped-label counter = %d", got)
	}
	var hist *Metric
	var gauge *Metric
	for i := range ms {
		switch ms[i].Name {
		case "tsplit_rt_lat_seconds":
			hist = &ms[i]
		case "tsplit_rt_gauge":
			gauge = &ms[i]
		}
	}
	if gauge == nil || gauge.Kind != "gauge" || gauge.Value != 1.5 {
		t.Fatalf("gauge = %+v", gauge)
	}
	if hist == nil || hist.Kind != "histogram" {
		t.Fatalf("histogram missing: %+v", ms)
	}
	h := hist.Histogram
	if len(h.Bounds) != 2 || h.Bounds[0] != 0.1 || h.Bounds[1] != 1 {
		t.Fatalf("bounds = %v", h.Bounds)
	}
	if len(h.Counts) != 3 || h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("counts = %v (must be de-cumulated)", h.Counts)
	}
	if h.Count != 3 || h.Sum != 99.55 {
		t.Fatalf("count/sum = %d/%v", h.Count, h.Sum)
	}
}

func TestParsePrometheusErrors(t *testing.T) {
	for _, bad := range []string{
		"tsplit_x",            // no value
		"tsplit_x{k=v} 1",     // unquoted label value
		"tsplit_x{k=\"v\" 1",  // no closing brace
		"tsplit_x notanumber", // bad value
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad + "\n")); err == nil {
			t.Fatalf("ParsePrometheus(%q) did not error", bad)
		}
	}
}

func TestParsePrometheusFileAndChromeTraceFile(t *testing.T) {
	dir := t.TempDir()
	mp := filepath.Join(dir, "metrics.prom")
	if err := os.WriteFile(mp, []byte("# TYPE tsplit_x_total counter\ntsplit_x_total 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dump, err := ParsePrometheusFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if findCounter(dump.Metrics, "tsplit_x_total") != 4 {
		t.Fatalf("metrics dump = %+v", dump.Metrics)
	}

	tp := filepath.Join(dir, "trace.json")
	trace := `{"traceEvents":[` +
		`{"name":"conv1","ph":"X","ts":10,"dur":5,"pid":1,"tid":1},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1},` +
		`{"name":"conv1","ph":"X","ts":20,"dur":7,"pid":1,"tid":1}]}`
	if err := os.WriteFile(tp, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	tdump, err := ParseChromeTraceFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tdump.Spans) != 2 {
		t.Fatalf("trace spans = %+v", tdump.Spans)
	}
	diag := Diagnose(tdump, nil)
	if len(diag.Phases) != 1 || diag.Phases[0].Name != "conv1" || diag.Phases[0].TotalMicros != 12 {
		t.Fatalf("trace phases = %+v", diag.Phases)
	}

	if _, err := ParsePrometheusFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing metrics file must error")
	}
	if _, err := ParseChromeTraceFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing trace file must error")
	}
	badTrace := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badTrace, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChromeTraceFile(badTrace); err == nil {
		t.Fatal("bad trace JSON must error")
	}
}

// findCounter returns the summed Int of every counter with the given
// name whose labels include all of want.
func findCounter(ms []Metric, name string, want ...Label) int64 {
	var total int64
	for _, m := range ms {
		if m.Name != name || m.Kind != "counter" {
			continue
		}
		ok := true
		for _, w := range want {
			has := false
			for _, l := range m.Labels {
				if l == w {
					has = true
					break
				}
			}
			if !has {
				ok = false
				break
			}
		}
		if ok {
			total += m.Int
		}
	}
	return total
}
