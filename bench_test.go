// Benchmarks that regenerate each table and figure of the paper's
// evaluation (Sec. VI). One testing.B benchmark per experiment id;
// each iteration performs the full experiment so -benchtime=1x gives
// one regeneration. The default scale-search bounds are trimmed so the
// whole suite completes in minutes; cmd/tsplit-bench runs the
// full-range versions and prints the complete tables.
package tsplit_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsplit"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// modelsConfig aliases the zoo config for the helpers below.
type modelsConfig = models.Config

// benchHi bounds the scale searches in benchmarks.
const (
	benchHiSample = 512
	benchHiParam  = 16
)

// sweep runs every experiment benchmark. It lives as long as the test
// binary, so a benchmark's timed runs rebatch the templates, slots and
// arenas its first run built, as a process that keeps its Sweep does.
var sweep experiments.Sweep

// BenchmarkFig1_BERTMemoryScale regenerates paper Fig. 1: BERT-Large
// memory requirement across the sample × parameter scale grid with
// per-GPU trainability.
func BenchmarkFig1_BERTMemoryScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, caps, err := sweep.Fig1BERTMemoryScale()
		if err != nil {
			b.Fatal(err)
		}
		if len(grid) == 0 || len(caps) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig2a_MemoryTimeline regenerates paper Fig. 2(a): the
// memory footprint over time of SuperNeurons vs TSPLIT on VGG-16.
func BenchmarkFig2a_MemoryTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Fig2aMemoryTimeline(device.TitanRTX, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2b_OverheadPCIe regenerates paper Fig. 2(b):
// SuperNeurons' overhead and PCIe utilization across the CNN models.
func BenchmarkFig2b_OverheadPCIe(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sweep.Fig2bOverheadPCIe(device.TitanRTX, "superneurons")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("missing models")
		}
	}
}

// BenchmarkTable2_TensorSizes regenerates paper Table II: the tensor
// size distribution of BERT-Large.
func BenchmarkTable2_TensorSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Table2TensorSizes(32, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_OpSplitCurves regenerates paper Fig. 5: operator
// execution time vs partition count.
func BenchmarkFig5_OpSplitCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Fig5OpSplitCurves(device.TitanRTX, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_MaxSampleScale regenerates paper Table IV: the
// maximum trainable batch size per model × policy on the Titan RTX.
func BenchmarkTable4_MaxSampleScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sweep.Table4MaxSampleScale(device.TitanRTX, benchHiSample)
		if t.Get("vgg16", "tsplit") <= 0 {
			b.Fatal("tsplit cannot train vgg16?")
		}
	}
}

// BenchmarkTable5_MaxParamScale regenerates paper Table V: the maximum
// parameter-scale multiplier per model × policy at batch 16.
func BenchmarkTable5_MaxParamScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sweep.Table5MaxParamScale(device.TitanRTX, benchHiParam)
		if t.Get("resnet50", "tsplit") <= 0 {
			b.Fatal("tsplit cannot scale resnet50?")
		}
	}
}

// BenchmarkFig12_ThroughputRTX regenerates paper Fig. 12: throughput
// vs sample size for four models on the Titan RTX.
func BenchmarkFig12_ThroughputRTX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := sweep.Fig12ThroughputRTX()
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig13_Throughput1080Ti regenerates paper Fig. 13: the same
// sweep on the GTX 1080Ti.
func BenchmarkFig13_Throughput1080Ti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := sweep.Fig13Throughput1080Ti()
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig14a_ScaleUnderThroughput regenerates paper Fig. 14(a):
// max sample size under 60%/50% of Base throughput for SuperNeurons,
// TSPLIT w/o Split and TSPLIT.
func BenchmarkFig14a_ScaleUnderThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sweep.Fig14aScaleUnderThroughput(device.TitanRTX, benchHiSample)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig14b_StrategyMix regenerates paper Fig. 14(b): TSPLIT's
// swap-vs-recompute byte mix on the Titan RTX vs the GTX 1080Ti.
func BenchmarkFig14b_StrategyMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := sweep.Fig14bStrategyMix(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("need both devices")
		}
	}
}

// BenchmarkTable6_MaxSampleVsOffload regenerates paper Table VI:
// sample scale against ZeRO-Offload and FairScale-Offload.
func BenchmarkTable6_MaxSampleVsOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sweep.Table6MaxSampleVsOffload(device.TitanRTX, benchHiSample)
		if t.Get("vgg16", "tsplit-offload") <= 0 {
			b.Fatal("tsplit missing")
		}
	}
}

// BenchmarkTable7_MaxParamVsOffload regenerates paper Table VII:
// parameter scale against the offload baselines.
func BenchmarkTable7_MaxParamVsOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sweep.Table7MaxParamVsOffload(device.TitanRTX, benchHiParam)
		if t.Get("transformer", "tsplit-offload") <= 0 {
			b.Fatal("tsplit missing")
		}
	}
}

// BenchmarkFig15_ThroughputVsOffload regenerates paper Fig. 15:
// throughput against the offload baselines.
func BenchmarkFig15_ThroughputVsOffload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := sweep.Fig15ThroughputVsOffload()
		if len(f.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblation_PlannerGreedyRatio measures planning cost itself:
// the model-guided greedy search on a large transformer graph.
func BenchmarkAblation_PlannerGreedyRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := prep.Build("bert-large", tsplitModelConfig(64), device.TitanRTX)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.PlanPolicy("tsplit", core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SplitVsNoSplit compares the feasibility frontier
// of TSPLIT with and without tensor splitting (Fig. 14(a) in
// miniature).
func BenchmarkAblation_SplitVsNoSplit(b *testing.B) {
	small := device.TitanRTX
	small.MemBytes = 6 << 30
	for i := 0; i < b.N; i++ {
		with := sweep.MaxSampleScale("vgg16", "tsplit", small, tsplitModelConfig(0), 256)
		without := sweep.MaxSampleScale("vgg16", "tsplit-nosplit", small, tsplitModelConfig(0), 256)
		if with < without {
			b.Fatalf("split (%d) below no-split (%d)", with, without)
		}
		b.ReportMetric(float64(with), "max-batch/split")
		b.ReportMetric(float64(without), "max-batch/nosplit")
	}
}

// tsplitModelConfig builds a ModelConfig with the given batch (0 keeps
// the zoo default; scale searches override it anyway).
func tsplitModelConfig(batch int) (c modelsConfig) {
	c.BatchSize = batch
	return
}

// --- planner hot-path benchmarks (perf trajectory) ---

// benchPlannerPlan times Planner.Plan alone (workload preparation is
// outside the timer) under real memory pressure: the capacity is a
// fraction of the unmanaged peak, so the greedy loop must commit many
// decisions.
func benchPlannerPlan(b *testing.B, model string, batch, pctOfPeak int) {
	b.Helper()
	p, err := prep.Build(model, tsplitModelConfig(batch), device.TitanRTX)
	if err != nil {
		b.Fatal(err)
	}
	cap := p.Lv.Peak * int64(pctOfPeak) / 100
	opts := core.Options{Capacity: cap, FragmentationReserve: -1}
	pl := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, opts)
	// One untimed run so the planner's one-time arena growth does not
	// bleed into allocs/op: the timed loop measures the steady state a
	// long-lived (or pooled) planner actually runs in, independent of
	// -benchtime. bench_guard.sh relies on this stability.
	if _, err := pl.Plan(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerPlan_VGG16(b *testing.B)     { benchPlannerPlan(b, "vgg16", 256, 60) }
func BenchmarkPlannerPlan_ResNet50(b *testing.B)  { benchPlannerPlan(b, "resnet50", 256, 60) }
func BenchmarkPlannerPlan_BERTLarge(b *testing.B) { benchPlannerPlan(b, "bert-large", 64, 60) }

// BenchmarkPlannerPlanPooled_BERTLarge is the steady-state arena
// story: Get/Plan/Put against a warmed PlannerPool. allocs/op here is
// the number the ISSUE caps at 100 (the seed spent 7,387); the pool
// reuses every scratch arena, so what remains is the returned Plan
// itself and the planner's per-run bookkeeping.
func BenchmarkPlannerPlanPooled_BERTLarge(b *testing.B) {
	p, err := prep.Build("bert-large", tsplitModelConfig(64), device.TitanRTX)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Capacity: p.Lv.Peak * 60 / 100, FragmentationReserve: -1}
	pp := core.NewPlannerPool(p.G, p.Sched, p.Lv, p.Prof, p.Dev)
	pl := pp.Get(opts)
	if _, err := pl.Plan(); err != nil {
		b.Fatal(err)
	}
	pp.Put(pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := pp.Get(opts)
		if _, err := pl.Plan(); err != nil {
			b.Fatal(err)
		}
		pp.Put(pl)
	}
}

// --- simulator hot-path benchmarks (perf trajectory) ---

// benchSimWorkload prepares a (workload, feasible tsplit plan) pair
// for the simulator benchmarks, using the same runtime options the
// experiment sweeps run with (LRU-hybrid recomputation).
func benchSimWorkload(b *testing.B, model string, batch int) (*prep.Prepared, *core.Plan, sim.Options) {
	b.Helper()
	p, err := prep.Build(model, tsplitModelConfig(batch), device.TitanRTX)
	if err != nil {
		b.Fatal(err)
	}
	r := experiments.RunPolicy(p, "tsplit")
	if !r.Feasible {
		b.Fatalf("tsplit infeasible on %s b%d: %s", model, batch, r.Reason)
	}
	return p, r.Plan, sim.Options{Recompute: sim.LRURecompute}
}

// benchSimRun times a cold sim.New(...).Run(): every iteration
// rebuilds the simulator state from scratch, which is what every sweep
// cell, differential clamp, and serve cold path paid before SimPool.
func benchSimRun(b *testing.B, model string, batch int) {
	p, plan, opts := benchSimWorkload(b, model, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.New(p.G, p.Sched, p.Lv, plan, p.Dev, opts).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRun_VGG16(b *testing.B)     { benchSimRun(b, "vgg16", 256) }
func BenchmarkSimRun_ResNet50(b *testing.B)  { benchSimRun(b, "resnet50", 256) }
func BenchmarkSimRun_BERTLarge(b *testing.B) { benchSimRun(b, "bert-large", 64) }

// BenchmarkSimRunPooled_BERTLarge times the steady-state arena path:
// one Simulator recycled through a SimPool, so the event heap, dense
// per-tensor mirrors, allocator tables, and split scratch all carry
// over between iterations. This is what sweep shards and the serve
// layer's warm path pay per simulation.
func BenchmarkSimRunPooled_BERTLarge(b *testing.B) {
	p, plan, opts := benchSimWorkload(b, "bert-large", 64)
	pool := sim.NewSimPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := pool.Get(p.G, p.Sched, p.Lv, plan, p.Dev, opts)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		pool.Put(s)
	}
}

// BenchmarkSimRunPooled_Checkpoints times the regeneration-heavy path:
// ResNet-101 at batch 64 under the √N checkpoints baseline, whose
// memory-centric recomputation replays each chain for every backward
// consumer (about 32 k regenerated ops a run), on a recycled
// Simulator. Its cost is almost all pool Alloc/FreeBlock.
func BenchmarkSimRunPooled_Checkpoints(b *testing.B) {
	p, err := prep.Build("resnet101", tsplitModelConfig(64), device.TitanRTX)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := prep.Lookup("checkpoints")
	if err != nil {
		b.Fatal(err)
	}
	plan, _, err := p.PlanPolicy(pol.Name, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{Recompute: pol.Recompute}
	pool := sim.NewSimPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := pool.Get(p.G, p.Sched, p.Lv, plan, p.Dev, opts)
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		pool.Put(s)
	}
}

// BenchmarkServeColdMiss is a /v1/plan miss on a workload the server
// does not hold, one request per iteration, through the handler:
// VGG-16, ResNet-50 and BERT-Large cycle through 12 batch sizes each,
// 36 workloads, more than the server's 32-entry workload cache holds,
// so every request names a cold workload, and each at a capacity of its
// own, so every plan key is new. One untimed pass builds each model's
// template; the timed requests rebatch the slots evicted workloads
// release, as a long-running server does.
func BenchmarkServeColdMiss(b *testing.B) {
	type cold struct {
		model string
		batch int
		peak  int64
	}
	var ws []cold
	for k := 1; k <= 12; k++ {
		for _, e := range []struct {
			model string
			batch int
		}{{"vgg16", 64}, {"resnet50", 64}, {"bert-large", 16}} {
			p, err := prep.Build(e.model, tsplitModelConfig(e.batch+k), device.TitanRTX)
			if err != nil {
				b.Fatal(err)
			}
			ws = append(ws, cold{e.model, e.batch + k, p.Lv.Peak})
		}
	}
	srv := tsplit.NewPlanServer(tsplit.PlanServerConfig{})
	post := func(i int) {
		w := ws[i%len(ws)]
		body := fmt.Sprintf(`{"model":%q,"config":{"batch_size":%d},"options":{"capacity_bytes":%d}}`,
			w.model, w.batch, w.peak*65/100+int64(i))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Tsplit-Cache") != "miss" {
			b.Fatalf("%s b%d: status %d, cache %q: %s", w.model, w.batch, rec.Code, rec.Header().Get("X-Tsplit-Cache"), rec.Body)
		}
	}
	for i := range ws {
		post(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(len(ws) + i)
	}
}

// BenchmarkAblation_DesignChoices runs every DESIGN.md §4 ablation
// sweep (candidate selection, recomputation strategy, split lookahead,
// tie-break, pool placement).
func BenchmarkAblation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := sweep.AllAblations()
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 5 {
			b.Fatal("missing ablations")
		}
	}
}
