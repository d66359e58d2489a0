package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tsplit"
	"tsplit/internal/core"
	"tsplit/internal/experiments"
	"tsplit/internal/obs"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed part
	trace    bool
	// The rest is fixed for a real run (see defaults); the package test
	// shrinks it.
	clients   int    // closed-loop clients: min(2, nproc)
	setupReps int    // set-ups timed for setup_s, after one that is not
	keys      int    // population of plan_hit and peak
	sweepHi   int    // Table IV search bound
	sample    int    // traced operations that also feed the count rows
	warmup    int    // unique-key requests of plan_miss's set-up
	outDir    string // where the traced run writes its dump ("" = nowhere)
}

func defaults(workload string, seed uint64, seconds float64, trace bool) config {
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	return config{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		clients: clients, setupReps: 5, keys: population, sweepHi: sweepHi, sample: phaseSample, warmup: missWarmup,
		outDir: filepath.Join("bench", "out"),
	}
}

// workloadNames in the order BENCHMARK.json lists them.
var workloadNames = []string{"plan_miss", "plan_hit", "peak", "sweep"}

// Result is the outcome of one run.
type Result struct {
	Workload  string          `json:"workload"`
	Trace     bool            `json:"trace"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]Stat `json:"metrics"`
	// Redraws is how many peak keys the runtime answered 422 during
	// set-up, each redrawn one stratum higher.
	Redraws int `json:"redraws,omitempty"`
}

func (r *Result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// op counts one operation.
func (r *Result) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// logf reports a failed check on standard error; standard output is
// the metrics.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// run executes one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func run(cfg config) (*Result, error) {
	in, err := newInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := &Result{Workload: cfg.workload, Trace: cfg.trace, Metrics: map[string]Stat{}}
	var w requestWorkload
	switch cfg.workload {
	case "plan_miss":
		w, err = newPlanMiss(in, cfg.warmup)
	case "plan_hit":
		w = newPlanHit(in, cfg.keys)
	case "peak":
		w = newPeak(in, cfg.keys)
	case "sweep":
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.trace && w == nil:
		err = traceSweep(cfg, in, res)
	case cfg.trace:
		err = traceRequests(cfg, w, res)
	case w == nil:
		err = runSweep(cfg, res)
	default:
		err = runRequests(cfg, w, res)
		if err == nil {
			// The simulated metrics of a request run come from one
			// reference pass; a sweep run takes them from its timed passes.
			checkTables(cfg, res, sweepPass(cfg.sweepHi))
		}
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		peakErr(in, res)
		res.Metrics["ok_ratio"] = exact("ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// freshTarget starts a server and its clients.
func freshTarget(cfg config) (*target, []*client, error) {
	t, err := startTarget(cfg.clients)
	if err != nil {
		return nil, nil, err
	}
	cs := make([]*client, cfg.clients)
	for i := range cs {
		cs[i] = &client{t: t}
	}
	return t, cs, nil
}

// runRequests is the untraced run of a request workload: set-up
// (repeated, for setup_s), the timed segments, then the deferred
// output checks.
func runRequests(cfg config, w requestWorkload, res *Result) error {
	var t *target
	var cs []*client
	var setups []float64
	first := 0
	for rep := 0; rep <= cfg.setupReps; rep++ {
		if t != nil {
			t.stop()
		}
		start := obs.Wall()
		var err error
		if t, cs, err = freshTarget(cfg); err != nil {
			return err
		}
		if first, err = w.setup(cs); err != nil {
			t.stop()
			return err
		}
		setups = append(setups, obs.Wall().Sub(start).Seconds())
	}
	defer t.stop()
	setups = setups[1:] // the first also pays the process's own start: heap growth, page faults

	var next atomic.Int64
	next.Store(int64(first))
	segDur := time.Duration(cfg.seconds / segments * float64(time.Second))
	segs := make([]segment, segments)
	for i := range segs {
		segs[i] = drive(cs, &next, 0, segDur, w.op)
	}
	m, attempted, failed := requestMetrics(segs)
	for name, st := range m {
		res.Metrics[name] = st
	}
	res.Metrics["setup_s"] = statOf("s", len(setups), setups...)
	res.count(attempted, failed)
	res.count(w.verify())
	if shed := t.srv.Metrics().Counter(cShed); shed > 0 {
		logf("%s: the server shed %d requests", cfg.workload, shed)
	}
	if p, ok := w.(*peak); ok {
		res.Redraws = p.redraws
	}
	return nil
}

// runSweep is the untraced sweep run. Its set-up is a reduced pass
// (Table IV searched to batch 8), which leaves the experiments layer's
// simulator arenas and the heap as a steady sweep finds them.
func runSweep(cfg config, res *Result) error {
	var setups []float64
	for rep := 0; rep <= cfg.setupReps; rep++ {
		start := obs.Wall()
		sweepPass(min(8, cfg.sweepHi))
		setups = append(setups, obs.Wall().Sub(start).Seconds())
	}
	setups = setups[1:] // as in runRequests
	var passes []pass
	var tables []sweepTables
	start := obs.Wall()
	for len(passes) < 3 || obs.Wall().Sub(start).Seconds() < cfg.seconds {
		t, p := timedPass(cfg.sweepHi)
		passes = append(passes, p)
		tables = append(tables, t)
	}
	for name, st := range sweepMetrics(passes) {
		res.Metrics[name] = st
	}
	res.Metrics["setup_s"] = statOf("s", len(setups), setups...)
	checkTables(cfg, res, tables[0])
	for i, t := range tables[1:] {
		same := t.equal(tables[0])
		res.op(same)
		if !same {
			logf("sweep check: pass %d rendered tables that differ from pass 0", i+1)
		}
	}
	return nil
}

// checkTables counts one sweep pass as an operation, checks a
// full-scale pass against the golden file, and reports the simulated
// metrics the pass carries.
func checkTables(cfg config, res *Result, t sweepTables) {
	for name, st := range t.modelMetrics() {
		res.Metrics[name] = st
	}
	if cfg.sweepHi != sweepHi {
		res.op(true)
		return
	}
	golden, err := readGolden()
	if err != nil {
		res.op(false)
		logf("sweep check: %v", err)
		return
	}
	same := t.equal(golden)
	res.op(same)
	if same {
		return
	}
	actual, err := outPath(cfg.outDir, "sweep-actual.json")
	if err == nil {
		err = writeTables(actual, t)
	}
	if err != nil {
		logf("sweep check: tables differ from %s (and writing them failed: %v)", goldenPath, err)
		return
	}
	logf("sweep check: tables differ from %s; this pass is in %s", goldenPath, actual)
}

// outPath names a file in the output directory, creating the directory.
func outPath(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// peakGrid are the capacity fractions peak_err_max_pct is taken over,
// on every zoo model: a fixed grid, so the metric does not depend on
// the seed.
var peakGrid = []float64{0.55, 0.60, 0.65, 0.70, 0.75, 0.80}

// peakErr asks a fresh server for /v1/peak on the grid and reports the
// largest gap between the planner's belief and the simulated runtime.
func peakErr(in *inputs, res *Result) {
	srv := tsplit.NewPlanServer(tsplit.PlanServerConfig{})
	worst := 0.0
	for _, w := range in.zoo {
		for _, f := range peakGrid {
			r := request{W: w, Capacity: int64(f * float64(w.Lv.Peak))}
			var body bytes.Buffer
			rep := serveDirect(srv, "/v1/peak", r.body(), &body)
			var got peakReply
			ok := rep.status == http.StatusOK && json.Unmarshal(body.Bytes(), &got) == nil && got.SimulatedPeakBytes > 0
			res.op(ok)
			if !ok {
				logf("peak_err_max_pct: %s at %.2f of its peak: status %d", w.Model, f, rep.status)
				continue
			}
			gap := 100 * math.Abs(float64(got.PlannerPeakBytes-got.SimulatedPeakBytes)) / float64(got.SimulatedPeakBytes)
			worst = math.Max(worst, gap)
		}
	}
	res.Metrics["peak_err_max_pct"] = exact("%", worst)
}

// ---- traced runs ----

// loopback drives the workload over the network for dur and returns
// the median request latency in milliseconds and the request count.
func loopback(cs []*client, next *atomic.Int64, dur time.Duration, op opFunc) (p50 float64, n, failed int) {
	seg := drive(cs, next, 0, dur, op)
	return float64(rank(seg.lat, 50)) / 1e6, len(seg.lat), seg.failed
}

// replayBase is the request index the one-at-a-time replay starts from:
// past any index the timed loopback can reach, so plan_miss keys stay
// unique, and fixed, so the operations behind the count rows are the
// same on every run of a seed.
const replayBase = 1 << 22

// traceRequests is the traced run of a request workload. A fifth of
// the time drives the loopback untraced (the counts and runtime rows
// are read around it), a fifth drives it with a span around every
// request (the difference is the tracing overhead), and the rest
// replays requests one at a time against the handler with a span
// around every layer call.
func traceRequests(cfg config, w requestWorkload, res *Result) error {
	t, cs, err := freshTarget(cfg)
	if err != nil {
		return err
	}
	defer t.stop()
	first, err := w.setup(cs)
	if err != nil {
		return err
	}
	p := newProbe()
	m := res.Metrics
	var next atomic.Int64
	next.Store(int64(first))
	fifth := time.Duration(cfg.seconds / 5 * float64(time.Second))

	reg := t.srv.Metrics()
	c0, r0 := readCounts(reg), readRuntime()
	plain, n, failed := loopback(cs, &next, fifth, w.op)
	countMetrics(m, c0, readCounts(reg), n)
	runtimeMetrics(m, r0, readRuntime(), n)
	res.count(n, failed)

	traced, n, failed := loopback(cs, &next, fifth, func(c *client, i int) (lat time.Duration, ok bool) {
		p.span(nil, "client.request", func() { lat, ok = w.op(c, i) })
		return lat, ok
	})
	res.count(n, failed)
	m["trace.overhead_pct"] = exact("%", 100*(traced-plain)/plain)

	deadline := obs.Wall().Add(3 * fifth)
	i := replayBase
	for done := 0; done < cfg.sample || obs.Wall().Before(deadline); done++ {
		ok := true
		switch w := w.(type) {
		case *planMiss:
			ok = p.replayMiss(t.srv, w.mix.miss(i), done < cfg.sample)
		case *planHit:
			ok = p.replayHits(t.srv, &w.keyed, i)
			i += hitBatch - 1
		case *peak:
			ok = p.replayPeak(t.srv, w.reqs[w.order[i%len(w.order)]], done < cfg.sample)
		}
		i++
		res.op(ok)
	}
	if pk, ok := w.(*peak); ok {
		for _, z := range pk.mix.zoo {
			p.poolReplay(nil, z)
		}
	}
	p.layerMetrics(m)
	if _, ok := w.(*planHit); ok {
		m["serve.net_overhead_us"] = exact("us", 1e3*plain-m["serve.hit_handler_us"].Value)
	}
	res.count(w.verify())
	return p.writeDump(cfg, reg)
}

// replayMiss is one plan_miss operation against the handler, followed
// by the public calls the handler makes for it.
func (p *probe) replayMiss(h http.Handler, r request, sample bool) bool {
	root := p.tr.StartSpan("op")
	opts := core.Options{Capacity: r.Capacity}
	var rep *discard
	if r.Cold {
		p.span(root, "serve.miss_coldwl", func() { rep = serveDirect(h, "/v1/plan", r.body(), nil) })
		if w := p.build(root, r.W.zooEntry); w != nil {
			if plan := p.planCold(root, w, opts); plan != nil {
				p.exportJSON(root, plan)
			}
		}
		root.End()
	} else {
		p.span(root, "serve.miss_handler", func() { rep = serveDirect(h, "/v1/plan", r.body(), nil) })
		if plan := p.planPooled(root, r.W, opts); plan != nil {
			p.exportJSON(root, plan)
		}
		root.End()
		if sample {
			p.planPhases(r.W, r.Capacity, true)
		}
	}
	p.bodyBytes = append(p.bodyBytes, rep.n)
	return rep.status == http.StatusOK && rep.h.Get("X-Tsplit-Cache") == "miss"
}

// replayHits is hitBatch plan_hit operations in one span.
func (p *probe) replayHits(h http.Handler, k *keyed, i int) bool {
	ok := true
	root := p.tr.StartSpan("op")
	p.span(root, "serve.hit_handler", func() {
		for j := i; j < i+hitBatch; j++ {
			rep := serveDirect(h, k.path, k.reqs[k.order[j%len(k.order)]].body(), nil)
			ok = ok && rep.status == http.StatusOK && rep.h.Get("X-Tsplit-Cache") == "hit"
		}
	})
	root.End()
	return ok
}

// replayPeak is one peak operation against the handler, the plan and
// peak replay the handler runs for it, and beside them the full timed
// simulation of the same plan.
func (p *probe) replayPeak(h http.Handler, r request, sample bool) bool {
	root := p.tr.StartSpan("op")
	var rep *discard
	p.span(root, "serve.peak_handler", func() { rep = serveDirect(h, "/v1/peak", r.body(), nil) })
	plan := p.planPooled(root, r.W, core.Options{Capacity: r.Capacity})
	if plan != nil {
		p.predictPeak(root, r.W, plan, r.Capacity)
	}
	root.End()
	if plan != nil {
		p.runPooled(nil, r.W, plan, r.Capacity, sample)
	}
	if sample {
		p.planPhases(r.W, r.Capacity, true)
	}
	return rep.status == http.StatusOK
}

// traceSweep is the traced sweep run: one untraced pass, one pass
// under the experiments layer's own recorder and cell spans, then the
// layers a pass calls, one span per public call, over the zoo.
func traceSweep(cfg config, in *inputs, res *Result) error {
	deadline := obs.Wall().Add(time.Duration(cfg.seconds * float64(time.Second)))
	p := newProbe()
	m := res.Metrics
	sweepPass(min(8, cfg.sweepHi))

	r0 := readRuntime()
	tables, plain := timedPass(cfg.sweepHi)
	runtimeMetrics(m, r0, readRuntime(), 1)
	checkTables(cfg, res, tables)

	reg := obs.NewRegistry()
	experiments.Obs, experiments.Trace = reg, p.tr
	again, traced := timedPass(cfg.sweepHi)
	experiments.Obs, experiments.Trace = nil, nil
	same := again.equal(tables)
	res.op(same)
	if !same {
		logf("sweep check: the traced pass rendered tables that differ from the untraced pass")
	}
	m["trace.overhead_pct"] = exact("%", 100*(traced.wall-plain.wall)/plain.wall)
	m["experiments.cells_per_pass"] = exact("count", float64(reg.Counter("tsplit_experiments_cells_total")))

	for round := 0; round == 0 || obs.Wall().Before(deadline); round++ {
		for _, z := range in.zoo {
			root := p.tr.StartSpan("op")
			w := p.build(root, z.zooEntry)
			if w != nil {
				p.baselinesPlan(root, w)
				capacity := w.Lv.Peak * 7 / 10
				if plan := p.planCold(root, w, core.Options{Capacity: capacity}); plan != nil {
					p.runPooled(root, w, plan, capacity, round == 0)
				}
				p.poolReplay(root, w)
			}
			root.End()
			if w != nil && round == 0 {
				p.planPhases(z, w.Lv.Peak*7/10, false)
			}
			res.op(w != nil)
		}
	}
	p.layerMetrics(m)
	return p.writeDump(cfg, reg)
}
