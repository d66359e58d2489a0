// Command tsplit-train runs REAL float32 training of a small
// convolutional classifier on synthetic data under a device-memory
// budget, with the full TSPLIT pipeline: profile → plan → execute with
// physical swap / recompute / micro-batch splitting. It demonstrates
// that a planned run reproduces the unconstrained losses exactly while
// staying under the budget, and exits 1 when any step's losses differ.
//
//	tsplit-train -batch 32 -steps 10 -budget 0.6
//
// With -model it instead plans and simulates a zoo model (vgg16,
// bert-large, ...) on a Titan RTX. Either mode exports observability
// artifacts on request:
//
//	tsplit-train -model vgg16 -batch 64 \
//	    -metrics out.prom -trace out.json -plan-report report.json
//
// Open the trace in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/hostexec"
	"tsplit/internal/nn"
	"tsplit/internal/obs"
	"tsplit/internal/tensor"
	"tsplit/internal/workload"

	"tsplit"
)

func buildNet(batch int) (*graph.Graph, *graph.Tensor) {
	g := graph.New()
	images := g.Input("images", tensor.NewShape(batch, 1, 16, 16), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	x := g.ReLU("c1.relu", g.Conv2D("c1", images, 8, 3, 1, 1))
	x = g.MaxPool("p1", x, 2, 2, 0)
	x = g.ReLU("c2.relu", g.Conv2D("c2", x, 16, 3, 1, 1))
	x = g.MaxPool("p2", x, 2, 2, 0)
	flat := g.Reshape("flat", x, tensor.NewShape(batch, 16*4*4))
	h := g.ReLU("fc1.relu", g.Dense("fc1", flat, 64))
	logits := g.Dense("fc2", h, 4)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(graph.Momentum); err != nil {
		log.Fatal(err)
	}
	return g, images
}

// outputs groups the observability flags shared by both modes.
type outputs struct {
	metrics, trace, report string
	spans, flightDump      string
	reg                    *tsplit.Registry
	tr                     *tsplit.Tracer
	fl                     *tsplit.Flight
	dumper                 *tsplit.Dumper
}

func (o *outputs) wantTrace() bool { return o.trace != "" }

// initObs builds the tracer, flight ring, and dumper the requested
// artifacts need. All three stay nil (free) unless asked for. -trace
// alone does NOT enable the tracer: span durations are wall-clock,
// and a spanless trace must stay byte-reproducible run to run under a
// fixed fault seed. Combine -trace with -spans to get the spans lane.
func (o *outputs) initObs(flightSize int) {
	if o.spans != "" || o.flightDump != "" {
		o.tr = tsplit.NewTracer()
	}
	if o.flightDump != "" {
		o.fl = tsplit.NewFlight(flightSize)
		o.dumper = &tsplit.Dumper{
			Flight:   o.fl,
			Registry: o.reg,
			Tracer:   o.tr,
			Sink:     tsplit.FileSink(o.flightDump),
		}
	}
}

// finishDump writes a final postmortem snapshot unless a ladder
// escalation already triggered one mid-run, so -flight-dump always
// leaves an artifact for tsplit-doctor.
func (o *outputs) finishDump() {
	if o.dumper == nil {
		return
	}
	if len(o.dumper.Triggers()) == 0 {
		o.dumper.Trigger("run completed")
	}
	if err := o.dumper.Err(); err != nil {
		log.Fatalf("writing flight dump: %v", err)
	}
	fmt.Printf("flight dump (%v) written to %s — analyze with tsplit-doctor -dump\n",
		o.dumper.Triggers(), o.flightDump)
}

func (o *outputs) writeSpans() {
	if o.spans == "" {
		return
	}
	if err := obs.WriteFile(o.spans, o.tr.WriteJSON); err != nil {
		log.Fatalf("writing spans: %v", err)
	}
	fmt.Printf("span tree written to %s\n", o.spans)
}

func (o *outputs) writeMetrics() {
	if o.metrics == "" {
		return
	}
	if err := obs.WriteFile(o.metrics, o.reg.WritePrometheus); err != nil {
		log.Fatalf("writing metrics: %v", err)
	}
	fmt.Printf("metrics written to %s\n", o.metrics)
}

func (o *outputs) writeReport(rep *tsplit.PlanReport) {
	if o.report == "" || rep == nil {
		return
	}
	if err := obs.WriteFile(o.report, rep.WriteJSON); err != nil {
		log.Fatalf("writing plan report: %v", err)
	}
	fmt.Printf("plan report (%d decisions) written to %s\n", len(rep.Decisions), o.report)
}

func (o *outputs) writeTrace(res tsplit.SimResult) {
	if o.trace == "" {
		return
	}
	if err := obs.WriteFile(o.trace, func(w io.Writer) error {
		return tsplit.WriteTraceSpans(w, res, o.tr)
	}); err != nil {
		log.Fatalf("writing trace: %v", err)
	}
	fmt.Printf("trace (%d timeline points) written to %s — open in https://ui.perfetto.dev\n",
		len(res.Timeline), o.trace)
}

// faultOpts groups the fault-injection flags.
type faultOpts struct {
	enabled  bool
	seed     uint64
	severity float64
}

// runZooFaulted plans and simulates a zoo model under an injected
// hostile environment, descending the graceful-degradation ladder
// instead of aborting on injected OOM.
func runZooFaulted(model string, batch int, budget float64, fo faultOpts, out *outputs) {
	w, cap := loadZoo(model, batch, budget)
	fmt.Printf("%s batch %d: unmanaged peak %.2f GiB; budget %.2f GiB; faults seed=%d severity=%.2f\n",
		model, batch, float64(w.BaselinePeakBytes())/(1<<30), float64(cap)/(1<<30), fo.seed, fo.severity)

	opts := []tsplit.RunOption{tsplit.Observe(out.reg)}
	if out.wantTrace() {
		opts = append(opts, tsplit.WithTimeline())
	}
	outcome, rep, err := w.RunResilient(
		tsplit.PlanOptions{
			CapacityBytes: cap, Observe: out.reg,
			Trace: out.tr, Flight: out.fl, Postmortem: out.dumper,
		},
		tsplit.FaultConfig{Seed: fo.seed, Severity: fo.severity},
		opts...)
	if err != nil {
		log.Fatalf("resilient run: %v", err)
	}
	for _, st := range outcome.Stages {
		status := "ok"
		if st.Err != "" {
			status = st.Err
		}
		fmt.Printf("  ladder %-8s margin=%.2f  %s\n", st.Kind, st.Margin, status)
	}
	f := rep.Raw.Faults
	fmt.Printf("simulated iteration: %.1f samples/s, peak %.2f GiB, overhead %.1f%%, PCIe %.0f%%\n",
		rep.Throughput, rep.PeakGiB, rep.Overhead*100, rep.PCIeUtilization*100)
	fmt.Printf("faults: %d swap retries (%d exhausted), %d degraded transfers, %d capacity events, noise %+.3fs\n",
		f.SwapRetries, f.SwapExhausted, f.BandwidthEvents, f.CapacityEvents, f.OpNoiseSeconds)

	out.writeReport(outcome.Report)
	out.writeTrace(rep.Raw)
	out.writeSpans()
	out.writeMetrics()
	out.finishDump()
}

// loadZoo prepares a zoo model on the Titan RTX, with its budget:
// budget × the unmanaged peak, at most the device's memory.
func loadZoo(model string, batch int, budget float64) (*tsplit.Workload, int64) {
	w, err := tsplit.Load(model, tsplit.ModelConfig{BatchSize: batch}, tsplit.TitanRTX)
	if err != nil {
		log.Fatal(err)
	}
	return w, min(int64(float64(w.BaselinePeakBytes())*budget), w.Dev.MemBytes)
}

// runZoo plans and simulates one iteration of a zoo model under a
// budget, exporting whatever artifacts were requested.
func runZoo(model string, batch int, budget float64, out *outputs) {
	w, cap := loadZoo(model, batch, budget)
	fmt.Printf("%s batch %d: unmanaged peak %.2f GiB; budget %.2f GiB\n",
		model, batch, float64(w.BaselinePeakBytes())/(1<<30), float64(cap)/(1<<30))

	plan, report, err := w.PlanWithReport(tsplit.PlanOptions{
		CapacityBytes: cap, Observe: out.reg, Trace: out.tr, Flight: out.fl,
	})
	if err != nil {
		log.Fatalf("planning: %v", err)
	}
	fmt.Println(plan)

	opts := []tsplit.RunOption{
		tsplit.Observe(out.reg), tsplit.WithTrace(out.tr), tsplit.WithFlight(out.fl),
	}
	if out.wantTrace() {
		opts = append(opts, tsplit.WithTimeline())
	}
	rep, err := w.Run(plan, opts...)
	if err != nil {
		log.Fatalf("simulating: %v", err)
	}
	fmt.Printf("simulated iteration: %.1f samples/s, peak %.2f GiB, overhead %.1f%%, PCIe %.0f%%\n",
		rep.Throughput, rep.PeakGiB, rep.Overhead*100, rep.PCIeUtilization*100)

	out.writeReport(report)
	out.writeTrace(rep.Raw)
	out.writeSpans()
	out.writeMetrics()
	out.finishDump()
}

func main() {
	model := flag.String("model", "", "zoo model to plan and simulate (e.g. vgg16, bert-large); empty = real float32 training demo")
	batch := flag.Int("batch", 32, "batch size")
	steps := flag.Int("steps", 10, "training steps (demo mode)")
	budget := flag.Float64("budget", 0.65, "device budget as a fraction of the unmanaged peak")
	metrics := flag.String("metrics", "", "write Prometheus text metrics to this file (\"-\" = stdout)")
	trace := flag.String("trace", "", "write a Chrome/Perfetto trace of the simulated iteration to this file")
	planReport := flag.String("plan-report", "", "write the planner's JSON decision report to this file (\"-\" = stdout)")
	spans := flag.String("spans", "", "write the span tree (planner phases, per-op execution) as JSON to this file (\"-\" = stdout)")
	flightDump := flag.String("flight-dump", "", "write a postmortem flight dump to this file (on ladder escalation, else at exit) for tsplit-doctor")
	flightSize := flag.Int("flight-size", 0, "flight-ring capacity in events (0 = default)")
	faultsOn := flag.Bool("faults", false, "inject a deterministic hostile environment (op noise, PCIe degradation, transient transfer failures, capacity shrink) and run the degradation ladder")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-injection seed; same seed + severity replays the same faults byte for byte")
	faultSeverity := flag.Float64("fault-severity", tsplit.DefaultFaultSeverity, "fault severity in (0, 1]")
	flag.Parse()

	out := &outputs{
		metrics: *metrics, trace: *trace, report: *planReport,
		spans: *spans, flightDump: *flightDump, reg: tsplit.NewRegistry(),
	}
	out.initObs(*flightSize)

	if *model != "" {
		if *faultsOn {
			runZooFaulted(*model, *batch, *budget, faultOpts{enabled: true, seed: *faultSeed, severity: *faultSeverity}, out)
			return
		}
		runZoo(*model, *batch, *budget, out)
		return
	}
	if *faultsOn {
		log.Fatal("-faults requires -model (fault injection runs in the simulator, not the float32 demo)")
	}

	g, images := buildNet(*batch)
	w, err := tsplit.FromGraph("cnn", g, tsplit.TitanRTX, tsplit.ModelConfig{BatchSize: *batch})
	if err != nil {
		log.Fatal(err)
	}
	cap := int64(float64(w.Lv.Peak) * *budget)
	fmt.Printf("unmanaged peak %.2f MiB; budget %.2f MiB\n", float64(w.Lv.Peak)/(1<<20), float64(cap)/(1<<20))

	plan, report, err := w.Prepared.Plan(core.Options{
		Capacity: cap * 85 / 100, FragmentationReserve: -1,
		Obs: out.reg, CollectReport: out.report != "",
		Trace: out.tr, Flight: out.fl,
	})
	if err != nil {
		log.Fatalf("planning: %v", err)
	}
	fmt.Println(plan)

	free := hostexec.New(g, w.Sched, core.NewPlan("base", tsplit.TitanRTX), 42)
	tight := hostexec.New(g, w.Sched, plan, 42)
	tight.Capacity = cap

	src, err := workload.NewImageSource(images, 4, 3)
	if err != nil {
		log.Fatal(err)
	}
	mismatches := 0
	for s := 1; s <= *steps; s++ {
		b := src.Next()
		l1, err := free.Step(map[*graph.Tensor]*nn.Buffer{images: b.Inputs[images].Clone()}, b.Labels)
		if err != nil {
			log.Fatal(err)
		}
		l2, err := tight.Step(b.Inputs, b.Labels)
		if err != nil {
			log.Fatal(err)
		}
		match := "=="
		if l1 != l2 {
			match = "!!"
			mismatches++
		}
		fmt.Printf("step %2d  loss %.6f %s %.6f\n", s, l1, match, l2)
	}
	fmt.Printf("\npeaks: unconstrained %.2f MiB, planned %.2f MiB (budget %.2f MiB); %d swaps, %d recomputes\n",
		float64(free.PeakBytes)/(1<<20), float64(tight.PeakBytes)/(1<<20), float64(cap)/(1<<20),
		tight.Swaps, tight.Recomputes)

	out.writeReport(report)
	if out.wantTrace() {
		rep, err := w.Run(plan, tsplit.WithTimeline(), tsplit.Observe(out.reg), tsplit.WithTrace(out.tr), tsplit.WithFlight(out.fl))
		if err != nil {
			log.Fatalf("simulating for trace: %v", err)
		}
		out.writeTrace(rep.Raw)
	}
	out.writeSpans()
	out.writeMetrics()
	out.finishDump()
	if mismatches > 0 {
		log.Fatalf("%d of %d steps: the planned loss differs from the unconstrained one", mismatches, *steps)
	}
}
