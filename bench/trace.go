package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/profiler"
	"tsplit/internal/sim"
)

// The traced run times each layer from outside: the harness opens a
// span (obs.Tracer, held in memory, written once at exit) around every
// call into a layer's public functions. A handler's internals are
// unexported, so its children are measured by replaying the same
// pipeline with public calls on the same inputs right after the
// ServeHTTP call; its self time is the handler span minus what the
// replayed children cover.

// Calls too short for the tracer's whole-microsecond spans are timed
// in batches of this many per span.
const (
	hitBatch      = 64
	profilerBatch = 8
)

// phaseSample is how many traced operations also run the planner under
// core.Options.Trace (its own phase spans) and feed the count rows: one
// full cycle of the request mix (7 models x 16 strata), so the counts
// do not depend on how many operations the run's time allowed.
const phaseSample = 7 * strata

// probe holds a traced run's tracer and the counts read at the same
// boundaries as its spans.
type probe struct {
	tr *obs.Tracer
	// sims serves workloads built inside the traced run, which have no
	// pool of their own: one pool across workloads, as the experiments
	// layer shares one across sweep cells.
	sims *sim.SimPool
	buf  bytes.Buffer

	plans, decisions int     // plans made inside phaseSample, and their decisions
	planMallocs      uint64  // heap objects those plans allocated
	bodyBytes        []int64 // reply sizes
	schedOps         int     // schedule ops walked by sim.run_pooled spans
	runs             int     // sim.run_pooled spans
	runMallocs       uint64
	simRes           []sim.Result // results inside phaseSample
	poolOps          int          // allocs + frees replayed through memorypool
	fragPct          []float64
}

func newProbe() *probe {
	return &probe{tr: obs.NewTracer(nil), sims: sim.NewSimPool()}
}

// span times fn as a child of parent (or as a root when parent is nil).
func (p *probe) span(parent *obs.Span, name string, fn func()) {
	var sp *obs.Span
	if parent == nil {
		sp = p.tr.StartSpan(name)
	} else {
		sp = parent.StartSpan(name)
	}
	fn()
	sp.End()
}

// mallocs is the process's cumulative heap-object count; deltas around
// single-goroutine work are that work's allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// discard is a ResponseWriter that keeps the status, counts the body's
// bytes, and keeps them only when body is set.
type discard struct {
	h      http.Header
	status int
	n      int64
	body   *bytes.Buffer
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(s int)   { d.status = s }
func (d *discard) Write(b []byte) (int, error) {
	d.n += int64(len(b))
	if d.body != nil {
		d.body.Write(b)
	}
	return len(b), nil
}

// serveDirect calls the handler directly, without the network. keep,
// when non-nil, receives the reply body.
func serveDirect(h http.Handler, path string, body []byte, keep *bytes.Buffer) *discard {
	d := &discard{h: http.Header{}, status: http.StatusOK, body: keep}
	h.ServeHTTP(d, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return d
}

// build replays workload preparation, one span per public constructor.
func (p *probe) build(parent *obs.Span, e zooEntry) *prepared {
	w := &prepared{zooEntry: e}
	var err error
	p.span(parent, "models.build", func() { w.G, err = models.Build(e.Model, models.Config{BatchSize: e.Batch}) })
	if err != nil {
		return nil
	}
	p.span(parent, "graph.schedule", func() { w.Sched, err = graph.BuildSchedule(w.G) })
	if err != nil {
		return nil
	}
	p.span(parent, "graph.liveness", func() { w.Lv = graph.AnalyzeLiveness(w.G, w.Sched) })
	p.span(parent, "profiler.new", func() {
		for k := 0; k < profilerBatch; k++ {
			w.Prof = profiler.New(dev, w.Sched)
		}
	})
	return w
}

// planPooled is one PlannerPool Get/Plan/Put, the serve layer's path.
func (p *probe) planPooled(parent *obs.Span, w *prepared, opts core.Options) *core.Plan {
	var plan *core.Plan
	p.span(parent, "core.plan_pooled", func() {
		pl := w.Planners.Get(opts)
		plan, _ = pl.Plan() // an infeasible key yields no plan; callers skip it
		w.Planners.Put(pl)
	})
	return plan
}

// planCold is NewPlanner(...).Plan(), the sweeps' path and the cost of
// a request to a workload the server has not prepared.
func (p *probe) planCold(parent *obs.Span, w *prepared, opts core.Options) *core.Plan {
	var plan *core.Plan
	p.span(parent, "core.plan_cold", func() {
		plan, _ = core.NewPlanner(w.G, w.Sched, w.Lv, w.Prof, dev, opts).Plan() // as planPooled
	})
	return plan
}

func (p *probe) exportJSON(parent *obs.Span, plan *core.Plan) {
	p.span(parent, "core.export_json", func() {
		p.buf.Reset()
		_ = core.ExportJSON(&p.buf, plan) // a bytes.Buffer write cannot fail
	})
}

// planPhases plans once more under core.Options.Trace, which records
// the planner's own phase spans, and counts the plan's decisions and
// allocations. It runs outside the operation's span.
func (p *probe) planPhases(w *prepared, capacity int64, pooled bool) {
	before := mallocs()
	var plan *core.Plan
	if pooled {
		pl := w.Planners.Get(core.Options{Capacity: capacity})
		plan, _ = pl.Plan() // an infeasible key yields no plan and is not counted
		w.Planners.Put(pl)
	} else {
		plan, _ = core.NewPlanner(w.G, w.Sched, w.Lv, w.Prof, dev, core.Options{Capacity: capacity}).Plan() // likewise
	}
	p.planMallocs += mallocs() - before
	if plan == nil {
		return
	}
	p.plans++
	p.decisions += len(plan.Tensors) + len(plan.Splits)
	pl := w.Planners.Get(core.Options{Capacity: capacity, Trace: p.tr})
	_, _ = pl.Plan() // planned cleanly two lines up
	w.Planners.Put(pl)
}

// simPool is the pool w's simulations borrow from.
func (p *probe) simPool(w *prepared) *sim.SimPool {
	if w.Sims != nil {
		return w.Sims
	}
	return p.sims
}

func (p *probe) predictPeak(parent *obs.Span, w *prepared, plan *core.Plan, capacity int64) {
	pool := p.simPool(w)
	p.span(parent, "sim.predict_peak", func() {
		s := pool.Get(w.G, w.Sched, w.Lv, plan, dev, simOptions(capacity))
		_, _ = s.PredictPeak() // the handler span beside it reports an infeasible key
		pool.Put(s)
	})
}

// runPooled is one full timed simulation on a pooled arena.
func (p *probe) runPooled(parent *obs.Span, w *prepared, plan *core.Plan, capacity int64, keep bool) {
	pool := p.simPool(w)
	before := mallocs()
	var res sim.Result
	var err error
	p.span(parent, "sim.run_pooled", func() {
		s := pool.Get(w.G, w.Sched, w.Lv, plan, dev, simOptions(capacity))
		res, err = s.Run()
		pool.Put(s)
	})
	p.runMallocs += mallocs() - before
	p.runs++
	p.schedOps += len(w.Sched.Ops)
	if keep && err == nil {
		p.simRes = append(p.simRes, res)
	}
}

// baselinesPlan runs every baseline policy on w, in table order.
func (p *probe) baselinesPlan(parent *obs.Span, w *prepared) {
	in := baselines.Inputs{G: w.G, Sched: w.Sched, Lv: w.Lv, Prof: w.Prof, Dev: dev}
	p.span(parent, "baselines.plan", func() {
		for _, name := range baselines.Names {
			_, _ = baselines.Registry[name](in) // a policy that does not apply to the model is part of the row
		}
	})
}

// poolReplay sends the unmanaged (Base) allocation sequence of w
// through a memorypool.Pool: resident tensors first, then at every
// schedule step the tensors first used there, then the ones last used
// there. The arena is twice the unmanaged peak, so no request fails.
func (p *probe) poolReplay(parent *obs.Span, w *prepared) {
	n := len(w.Sched.Ops)
	allocAt := make([][]*graph.Tensor, n+1) // index n: resident from the start
	freeAt := make([][]*graph.Tensor, n)
	for _, t := range w.G.Tensors {
		if t.Bytes() <= 0 {
			continue
		}
		if first := w.Lv.FirstUse[t]; first < 0 {
			allocAt[n] = append(allocAt[n], t)
		} else {
			allocAt[first] = append(allocAt[first], t)
			freeAt[w.Lv.LastUse[t]] = append(freeAt[w.Lv.LastUse[t]], t)
		}
	}
	pool := memorypool.New(2*w.Lv.Peak, memorypool.BestFit)
	blocks := make(map[*graph.Tensor]memorypool.Block, len(w.G.Tensors))
	ops := 0
	var atPeak memorypool.Stats
	p.span(parent, "memorypool.replay", func() {
		alloc := func(ts []*graph.Tensor) {
			for _, t := range ts {
				b, err := pool.Alloc(t.Bytes())
				if err != nil {
					continue
				}
				blocks[t] = b
				ops++
			}
		}
		alloc(allocAt[n])
		for i := 0; i < n; i++ {
			alloc(allocAt[i])
			if i == w.Lv.PeakIdx {
				atPeak = pool.Stats()
			}
			for _, t := range freeAt[i] {
				if b, ok := blocks[t]; ok {
					pool.FreeBlock(b)
					ops++
				}
			}
		}
	})
	p.poolOps += ops
	if free := atPeak.Capacity - atPeak.InUse; free > 0 {
		p.fragPct = append(p.fragPct, 100*float64(free-atPeak.LargestFree)/float64(free))
	}
}

// phases is obs.Diagnose's phase table over everything the probe
// traced, by span name.
func (p *probe) phases() map[string]obs.PhaseStat {
	out := map[string]obs.PhaseStat{}
	for _, ph := range obs.Diagnose(&obs.Dump{Spans: p.tr.Tree()}, nil).Phases {
		out[ph.Name] = ph
	}
	return out
}

// selfMicros is the median, over the operations that ran handler, of
// the handler span minus its replayed children.
func (p *probe) selfMicros(handler string, children ...string) float64 {
	var self []float64
	for _, root := range p.tr.Tree() {
		if root.Name != "op" {
			continue
		}
		var h, covered int64 = -1, 0
		for _, c := range root.Children {
			if c.Name == handler {
				h = c.DurMicros
			}
			for _, name := range children {
				if c.Name == name {
					covered += c.DurMicros
				}
			}
		}
		if h >= 0 {
			self = append(self, float64(h-covered))
		}
	}
	slices.Sort(self)
	return median(self)
}

// runtimeSample reads the runtime/metrics counters the runtime.* rows
// are deltas of.
type runtimeSample struct{ gcCPU, busyCPU, objects float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:   s[0].Value.Float64(),
		busyCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		objects: float64(s[3].Value.Uint64()),
	}
}

// runtimeMetrics are the runtime.* rows for ops operations between two
// samples.
func runtimeMetrics(m map[string]Stat, a, b runtimeSample, ops int) {
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		m["runtime.gc_cpu_pct"] = exact("%", 100*(b.gcCPU-a.gcCPU)/busy)
	}
	if ops > 0 {
		m["runtime.allocs_per_op"] = exact("count", (b.objects-a.objects)/float64(ops))
	}
}

// counterNames are the server counters the serve.* count rows read.
const (
	cHits      = "tsplit_serve_cache_hits_total"
	cMisses    = "tsplit_serve_cache_misses_total"
	cRuns      = "tsplit_serve_planner_runs_total"
	cEvictions = "tsplit_serve_cache_evictions_total"
	cCoalesced = "tsplit_serve_coalesced_total"
	cShed      = "tsplit_serve_shed_total"
	cSimGets   = "tsplit_simpool_gets_total"
	cSimReuse  = "tsplit_simpool_reuse_hits_total"
	hPeak      = "tsplit_serve_peak_seconds"
)

// serveCounts is a reading of the server's registry.
type serveCounts struct {
	hits, misses, runs, evictions, coalesced, shed, simGets, simReuse int64
}

func readCounts(reg *obs.Registry) serveCounts {
	return serveCounts{
		hits: reg.Counter(cHits), misses: reg.Counter(cMisses),
		// /v1/peak plans without going through the plan counter; each of
		// its plan + PredictPeak runs is one tsplit_serve_peak_seconds
		// observation.
		runs:      reg.Counter(cRuns) + reg.Histogram(hPeak).Count,
		evictions: reg.Counter(cEvictions), coalesced: reg.Counter(cCoalesced),
		shed: reg.Counter(cShed), simGets: reg.Counter(cSimGets), simReuse: reg.Counter(cSimReuse),
	}
}

// countMetrics are the serve.* count rows for reqs requests between
// two readings. All are exact.
func countMetrics(m map[string]Stat, a, b serveCounts, reqs int) {
	per := func(x, y int64) Stat { return exact("1/req", float64(y-x)/float64(reqs)) }
	if lookups := (b.hits - a.hits) + (b.misses - a.misses); lookups > 0 {
		m["serve.cache_hit_ratio"] = exact("ratio", float64(b.hits-a.hits)/float64(lookups))
	}
	m["serve.planner_runs"] = per(a.runs, b.runs)
	m["serve.cache_evictions"] = per(a.evictions, b.evictions)
	m["serve.coalesced"] = per(a.coalesced, b.coalesced)
	m["serve.shed"] = per(a.shed, b.shed)
	if gets := b.simGets - a.simGets; gets > 0 {
		m["serve.simpool_reuse_ratio"] = exact("ratio", float64(b.simReuse-a.simReuse)/float64(gets))
	}
}

// layerMetrics turns the phase table and the probe's counts into the
// per-layer rows. A layer that did no work in this workload has no
// span, and its rows stay 0.
func (p *probe) layerMetrics(m map[string]Stat) {
	ph := p.phases()
	p50 := func(row, span, unit string, div float64) {
		if st, ok := ph[span]; ok && st.Count > st.Open {
			v := float64(st.P50Micros) / div
			m[row] = Stat{Value: v, Unit: unit, Lo: v, Hi: float64(st.P99Micros) / div, Q1: v, Q3: v, K: 1, N: st.Count}
		}
	}
	p50("serve.hit_handler_us", "serve.hit_handler", "us", hitBatch)
	p50("serve.miss_handler_ms", "serve.miss_handler", "ms", 1e3)
	p50("serve.miss_coldwl_ms", "serve.miss_coldwl", "ms", 1e3)
	p50("serve.peak_handler_ms", "serve.peak_handler", "ms", 1e3)
	p50("core.plan_pooled_ms", "core.plan_pooled", "ms", 1e3)
	p50("core.plan_cold_ms", "core.plan_cold", "ms", 1e3)
	p50("core.export_json_us", "core.export_json", "us", 1)
	p50("sim.predict_peak_us", "sim.predict_peak", "us", 1)
	p50("sim.run_pooled_us", "sim.run_pooled", "us", 1)
	p50("models.build_ms", "models.build", "ms", 1e3)
	p50("graph.schedule_ms", "graph.schedule", "ms", 1e3)
	p50("graph.liveness_ms", "graph.liveness", "ms", 1e3)
	p50("profiler.new_ms", "profiler.new", "ms", 1e3*profilerBatch)
	p50("baselines.plan_ms", "baselines.plan", "ms", 1e3)
	p50("experiments.cell_p50_ms", "experiments.cell", "ms", 1e3)

	if _, ok := ph["serve.miss_handler"]; ok {
		m["serve.miss_self_ms"] = exact("ms", p.selfMicros("serve.miss_handler", "core.plan_pooled", "core.export_json")/1e3)
	}
	if _, ok := ph["serve.peak_handler"]; ok {
		m["serve.peak_self_ms"] = exact("ms", p.selfMicros("serve.peak_handler", "core.plan_pooled", "sim.predict_peak")/1e3)
	}
	// The planner's own phase spans, as mean microseconds per traced
	// plan (bottleneck and fold run once per greedy iteration).
	if plans := ph["planner.plan"].Count; plans > 0 {
		perPlan := func(row, span string) {
			m[row] = exact("us", float64(ph[span].TotalMicros)/float64(plans))
		}
		perPlan("core.phase.index_build_us", "planner.index.build")
		perPlan("core.phase.bottleneck_us", "planner.bottleneck")
		perPlan("core.phase.fold_us", "planner.fold")
		perPlan("core.phase.finalize_us", "planner.finalize")
	}
	if p.plans > 0 {
		m["core.decisions_per_plan"] = exact("count", float64(p.decisions)/float64(p.plans))
		m["core.allocs_per_plan"] = exact("count", float64(p.planMallocs)/float64(p.plans))
	}
	if len(p.bodyBytes) > 0 {
		slices.Sort(p.bodyBytes)
		m["serve.body_kb_p50"] = exact("KB", float64(rank(p.bodyBytes, 50))/1024)
	}
	if p.runs > 0 {
		m["sim.ns_per_sched_op"] = exact("ns", 1e3*float64(ph["sim.run_pooled"].TotalMicros)/float64(p.schedOps))
		m["sim.allocs_per_run"] = exact("count", float64(p.runMallocs)/float64(p.runs))
	}
	if n := float64(len(p.simRes)); n > 0 {
		var swap, recomputed, stall, pcie, compactions float64
		for _, r := range p.simRes {
			swap += float64(r.SwapOutBytes+r.SwapInBytes) / 1e9
			recomputed += float64(r.RecomputedOps)
			stall += r.StallTime / r.Time
			pcie += r.PCIeUtilization
			compactions += float64(r.Compactions)
		}
		m["sim.swap_gb_per_iter"] = exact("GB", swap/n)
		m["sim.recomputed_ops"] = exact("count", recomputed/n)
		m["sim.stall_frac"] = exact("ratio", stall/n)
		m["sim.pcie_util"] = exact("ratio", pcie/n)
		m["sim.compactions"] = exact("count", compactions/n)
	}
	if p.poolOps > 0 {
		m["memorypool.alloc_free_ns"] = exact("ns", 1e3*float64(ph["memorypool.replay"].TotalMicros)/float64(p.poolOps))
		slices.Sort(p.fragPct)
		m["memorypool.frag_pct"] = exact("%", median(p.fragPct))
	}
}

// writeDump stores the run's spans and the server's metrics as a dump
// tsplit-doctor -dump reads.
func (p *probe) writeDump(cfg config, reg *obs.Registry) error {
	if cfg.outDir == "" {
		return nil
	}
	path, err := outPath(cfg.outDir, "trace-"+cfg.workload+".json")
	if err != nil {
		return err
	}
	return obs.FileSink(path)(&obs.Dump{
		Reason: "bench traced run: " + cfg.workload, Metrics: reg.Snapshot(), Spans: p.tr.Tree(),
	})
}
