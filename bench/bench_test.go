package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []benchmarkMetric       `json:"end_to_end"`
	PerLayer  []benchmarkMetric       `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONAgreesWithDefs: BENCHMARK.json and the program name
// the same workloads and the same metrics, with the same units,
// directions and bounds.
func TestBenchmarkJSONAgreesWithDefs(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	agree := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			want := benchmarkMetric{d.Name, d.Unit, d.Better, d.Bound}
			if file[i] != want {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, file[i], want)
			}
		}
	}
	agree("end_to_end", bj.EndToEnd, endToEnd)
	agree("per_layer", bj.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs every workload, untraced and traced, at
// 1/200 of a real run and checks the result line the driver reads:
// every metric BENCHMARK.json names is there, finite, with its unit,
// no operation failed, and no end-to-end metric is 0. The traced runs
// must also show which layers a workload leaves alone.
func TestEveryMetricEmitted(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	// Per-layer rows a traced run must report as 0 (the layer does no
	// work in the workload) or as 1.
	type rows struct{ zero, one []string }
	predictions := map[string]rows{
		"plan_miss": {[]string{"serve.cache_hit_ratio", "serve.shed", "sim.predict_peak_us", "sim.run_pooled_us", "memorypool.alloc_free_ns"}, []string{"serve.planner_runs"}},
		"plan_hit":  {[]string{"serve.planner_runs", "serve.shed", "core.plan_pooled_ms", "sim.predict_peak_us", "sim.run_pooled_us"}, []string{"serve.cache_hit_ratio"}},
		"peak":      {[]string{"serve.shed", "core.export_json_us"}, []string{"serve.planner_runs"}},
	}
	for _, trace := range []bool{false, true} {
		want := bj.EndToEnd
		if trace {
			want = bj.PerLayer
		}
		for _, name := range workloadNames {
			cfg := defaults(name, 7, 15.0/200, trace)
			cfg.setupReps, cfg.keys, cfg.sweepHi, cfg.sample, cfg.warmup = 1, 16, 1, 7, 64
			cfg.outDir = t.TempDir()
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			b, err := resultLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", name, trace, err)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result line, BENCHMARK.json names %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", m.Name)
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: %s is not emitted", name, trace, m.Name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.Name, *got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && *got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
			if !trace {
				continue
			}
			for _, row := range predictions[name].zero {
				if v := res.Metrics[row].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0", name, row, v)
				}
			}
			for _, row := range predictions[name].one {
				if v := res.Metrics[row].Value; v != 1 {
					t.Errorf("%s: %s = %v, want 1", name, row, v)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "req_per_s", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "table4_rows_ok", Better: "higher", Bound: exactBound, Exact: true}
	// five values, quartiles halfway between the median and the ends
	st := func(v, lo, hi float64) Stat {
		return Stat{Value: v, Lo: lo, Hi: hi, Q1: (v + lo) / 2, Q3: (v + hi) / 2, K: 5}
	}
	for _, tc := range []struct {
		d    metricDef
		a, b Stat
		want string
	}{
		{lower, st(1.00, 0.98, 1.02), st(1.05, 1.03, 1.07), "ok"},
		{lower, st(1.00, 0.98, 1.02), st(1.20, 1.18, 1.22), "regressed"},
		{lower, st(1.00, 0.98, 1.02), st(0.70, 0.69, 0.71), "ok"},
		{lower, st(1.00, 0.60, 1.50), st(1.05, 0.65, 1.55), "unresolved"},
		{lower, st(1.00, 0.60, 1.50), st(1.90, 1.60, 2.30), "regressed"},
		{higher, st(100, 99, 101), st(85, 84, 86), "regressed"},
		{higher, st(100, 99, 101), st(95, 94, 96), "ok"},
		{count, st(6, 6, 6), st(6, 6, 6), "ok"},
		{count, st(6, 6, 6), st(5, 5, 5), "regressed"},
		{count, st(6, 6, 6), st(7, 7, 7), "ok"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestQuantile: quartiles follow Python's statistics.quantiles(n=4).
func TestQuantile(t *testing.T) {
	five := []float64{1, 2, 4, 7, 11}
	if q1, q3 := quantile(five, 1), quantile(five, 3); q1 != 1.5 || q3 != 9 {
		t.Errorf("quartiles of %v = %v, %v; want 1.5, 9", five, q1, q3)
	}
	three := []float64{1, 2, 4}
	if q1, q3 := quantile(three, 1), quantile(three, 3); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of %v = %v, %v; want 1, 4", three, q1, q3)
	}
}
