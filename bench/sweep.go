package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"

	"tsplit/internal/experiments"
	"tsplit/internal/obs"
)

// sweepHi bounds Table IV's batch-size search in a full-scale pass; the
// committed golden holds for this bound only.
const sweepHi = 2048

// paperTable4 is the TSPLIT column of the paper's Table IV, as
// EXPERIMENTS.md quotes it beside the measured cells.
var paperTable4 = map[string]float64{
	"vgg16": 661, "vgg19": 661, "resnet50": 1278,
	"resnet101": 1096, "inceptionv4": 1372, "transformer": 730,
}

// sweepSeries is one Fig. 12 line: simulated samples/s per batch size.
type sweepSeries struct {
	Policy string    `json:"policy"`
	Batch  []int     `json:"batch"`
	Thr    []float64 `json:"samples_per_s"`
}

// sweepTables is what one sweep pass computes, in the form the golden
// file stores: Table IV cells (max batch; -1 = policy not applicable)
// and the Fig. 12 series per model.
type sweepTables struct {
	Table4 map[string]map[string]int `json:"table4"`
	Fig12  map[string][]sweepSeries  `json:"fig12"`
}

// sweepPass runs one Table IV + Fig. 12 pass through the experiments
// layer's public entry points.
func sweepPass(hi int) sweepTables {
	t4 := experiments.Table4MaxSampleScale(dev, hi)
	f12 := experiments.Fig12ThroughputRTX()
	out := sweepTables{Table4: t4.Cells, Fig12: map[string][]sweepSeries{}}
	for model, series := range f12.Series {
		for _, s := range series {
			out.Fig12[model] = append(out.Fig12[model], sweepSeries{s.Policy, s.Batch, s.Thr})
		}
	}
	return out
}

// equal reports whether two passes computed the same tables. Cells are
// integers and compare exactly; throughputs are products of a
// deterministic simulation and compare to 1e-9 relative, which leaves
// room only for a platform's floating-point contraction.
func (a sweepTables) equal(b sweepTables) bool {
	if !reflect.DeepEqual(a.Table4, b.Table4) || len(a.Fig12) != len(b.Fig12) {
		return false
	}
	for model, series := range a.Fig12 {
		other := b.Fig12[model]
		if len(series) != len(other) {
			return false
		}
		for i, s := range series {
			o := other[i]
			if s.Policy != o.Policy || !reflect.DeepEqual(s.Batch, o.Batch) || len(s.Thr) != len(o.Thr) {
				return false
			}
			for j := range s.Thr {
				if math.Abs(s.Thr[j]-o.Thr[j]) > 1e-9*math.Abs(o.Thr[j]) {
					return false
				}
			}
		}
	}
	return true
}

// modelMetrics are the simulated, exact end-to-end metrics: what the
// modelled GPU achieves under TSPLIT's plans, with the paper's own
// numbers beside them. A host-speed change leaves all of them as they
// are.
func (t sweepTables) modelMetrics() map[string]Stat {
	models := make([]string, 0, len(t.Table4))
	for m := range t.Table4 {
		models = append(models, m)
	}
	sort.Strings(models)
	var batches []float64
	var paperErr float64
	rowsOK := 0
	for _, m := range models {
		row := t.Table4[m]
		v := float64(row["tsplit"])
		batches = append(batches, v)
		if paper := paperTable4[m]; paper > 0 {
			paperErr += math.Abs(v-paper) / paper
		}
		best := true
		for _, other := range row {
			if other > row["tsplit"] {
				best = false
			}
		}
		if best {
			rowsOK++
		}
	}
	var thr []float64
	for _, series := range t.Fig12 {
		for _, s := range series {
			if s.Policy == "tsplit" {
				thr = append(thr, s.Thr...)
			}
		}
	}
	sort.Float64s(thr) // map order must not reach the floating-point sum
	return map[string]Stat{
		"table4_tsplit_geomean":      exact("batch", geomean(batches)),
		"table4_paper_err_pct":       exact("%", 100*paperErr/float64(len(models))),
		"table4_rows_ok":             exact("count", float64(rowsOK)),
		"fig12_tsplit_samples_per_s": exact("samples/s", geomean(thr)),
	}
}

// goldenPath is the hand-checked reference of a full-scale pass: its
// Table IV cells are the measured column of EXPERIMENTS.md.
var goldenPath = filepath.Join("bench", "golden", "sweep.json")

func readGolden() (sweepTables, error) {
	var g sweepTables
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// writeTables stores a pass that differs from the golden next to the
// other outputs, so the two files can be diffed.
func writeTables(path string, t sweepTables) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// pass is one timed sweep pass.
type pass struct {
	wall  float64 // seconds
	alloc uint64  // bytes
}

// timedPass runs one pass between two reads of the clock and of the
// allocation counter.
func timedPass(hi int) (sweepTables, pass) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := obs.Wall()
	t := sweepPass(hi)
	wall := obs.Wall().Sub(start).Seconds()
	runtime.ReadMemStats(&after)
	return t, pass{wall: wall, alloc: after.TotalAlloc - before.TotalAlloc}
}

// sweepMetrics turns the passes of a sweep run into the same metric
// names the request workloads report: here an operation is one pass,
// so the latencies are pass times and req_p99_ms is the slowest pass
// (fewer than a hundred passes fit a run).
func sweepMetrics(ps []pass) map[string]Stat {
	var secs, ms, rate, alloc []float64
	for _, p := range ps {
		secs = append(secs, p.wall)
		ms = append(ms, p.wall*1e3)
		rate = append(rate, 1/p.wall)
		alloc = append(alloc, float64(p.alloc)/1024)
	}
	n := len(ps)
	slowest := statOf("ms", n, ms...)
	slowest.Value = slowest.Hi
	return map[string]Stat{
		"pass_s":          statOf("s", n, secs...),
		"req_p50_ms":      statOf("ms", n, ms...),
		"req_p99_ms":      slowest,
		"req_per_s":       statOf("1/s", n, rate...),
		"alloc_kb_per_op": statOf("KB", n, alloc...),
	}
}
