// Package tsplit is a reproduction of "TSPLIT: Fine-grained GPU Memory
// Management for Efficient DNN Training via Tensor Splitting"
// (Nie, Miao, Yang, Cui — ICDE 2022) as a pure-Go library.
//
// It provides:
//
//   - a dataflow-graph representation of DNN training with automatic
//     backward-pass generation and a model zoo (VGG, ResNet,
//     Inception-V4, Transformer/BERT);
//   - simulated GPU devices (Titan RTX, GTX 1080Ti, V100, P100) with
//     an analytic kernel cost model standing in for cudaEvent
//     profiling;
//   - TSPLIT's contribution: the splittable-tensor (sTensor) model and
//     the model-guided planner that jointly optimizes tensor splitting
//     with swap/recompute decisions (paper Algorithm 2);
//   - the baseline policies it is evaluated against (vDNN, gradient
//     checkpointing, SuperNeurons, ZeRO-Offload, FairScale-Offload);
//   - a discrete-event runtime (streams, PCIe, best-fit pool) that
//     measures throughput, peak memory, and PCIe utilization — or
//     reports OOM when a policy cannot train a configuration;
//   - a real float32 engine that executes plans on actual values for
//     end-to-end numeric validation.
//
// Quick start:
//
//	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 256}, tsplit.TitanRTX)
//	plan, err := w.Plan(tsplit.PlanOptions{})
//	report, err := w.Run(plan)
//	fmt.Printf("%.1f images/s, peak %.1f GiB\n", report.Throughput, report.PeakGiB)
package tsplit

import (
	"fmt"
	"io"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/faults"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/resilient"
	"tsplit/internal/serve"
	"tsplit/internal/sim"
)

// Re-exported fundamental types. The internal packages carry the
// implementation; these aliases are the supported public surface.
type (
	// Device is a simulated accelerator profile.
	Device = device.Device
	// Graph is a training dataflow graph.
	Graph = graph.Graph
	// Plan is a memory-management strategy configuration.
	Plan = core.Plan
	// ModelConfig scales a zoo model (batch size, parameter scale...).
	ModelConfig = models.Config
	// SimResult is the raw runtime measurement set.
	SimResult = sim.Result
	// Recorder receives metrics from the planner and the runtime. A nil
	// Recorder is valid everywhere and costs nothing.
	Recorder = obs.Recorder
	// Registry is the built-in Recorder: thread-safe counters, gauges,
	// and histograms with Prometheus text and JSON exposition.
	Registry = obs.Registry
	// PlanReport is the planner's structured introspection record: one
	// entry per greedy iteration plus plan-level aggregates.
	PlanReport = core.PlanReport
	// Violation is one broken plan invariant found by VerifyPlan.
	Violation = core.Violation
	// FaultConfig selects a deterministic fault-injection environment
	// (seed, severity, fault classes) for RunResilient.
	FaultConfig = faults.Config
	// ResilientOutcome is the result of a RunResilient call: the plan
	// and measurements of the degradation-ladder rung that survived,
	// plus the ladder trail.
	ResilientOutcome = resilient.Outcome
	// Tracer records a deterministic forest of nested spans (planner
	// phases, per-op simulation, ladder rungs). A nil *Tracer is valid
	// everywhere and costs nothing.
	Tracer = obs.Tracer
	// Span is one span in a Tracer's forest.
	Span = obs.Span
	// SpanNode is the exported (JSON-ready) form of a span tree.
	SpanNode = obs.SpanNode
	// Flight is a fixed-size ring of recent structured events (plan
	// decisions, fault injections, ladder escalations). A nil *Flight
	// is valid everywhere.
	Flight = obs.Flight
	// FlightEvent is one recorded flight-ring event.
	FlightEvent = obs.Event
	// Dump is a self-contained postmortem snapshot: flight events,
	// metrics, and span trees.
	Dump = obs.Dump
	// Dumper snapshots a Flight + Registry + Tracer into a Dump sink
	// when triggered (ladder escalations trigger it automatically).
	Dumper = obs.Dumper
	// PlanServer is the planning service: an http.Handler exposing
	// POST /v1/plan and POST /v1/peak, each with a content-addressed
	// response cache, request coalescing, and admission control, plus
	// /healthz and /metrics.
	PlanServer = serve.Server
	// PlanServerConfig tunes a PlanServer; the zero value is a usable
	// production default.
	PlanServerConfig = serve.Config
	// PlanRequest is the POST /v1/plan body.
	PlanRequest = serve.PlanRequest
	// PlanResponse is the POST /v1/plan success body.
	PlanResponse = serve.PlanResponse
)

// DefaultFaultSeverity is the documented default for fault injection.
const DefaultFaultSeverity = faults.DefaultSeverity

// NewPlanServer builds a planning server from cfg, applying defaults
// to zero fields. Serve it with net/http: the returned value is the
// handler for /v1/plan, /v1/peak, /healthz, and /metrics.
func NewPlanServer(cfg PlanServerConfig) *PlanServer { return serve.New(cfg) }

// NewRegistry returns an empty metrics Registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns a wall-clock span tracer.
func NewTracer() *Tracer { return obs.NewTracer(nil) }

// NewFlight returns a flight recorder keeping the last n events
// (n <= 0: a sensible default).
func NewFlight(n int) *Flight { return obs.NewFlight(n, nil) }

// FileSink returns a Dumper sink overwriting path with each dump
// (last trigger wins — the freshest postmortem is the useful one).
func FileSink(path string) func(*Dump) error { return obs.FileSink(path) }

// Built-in device profiles (paper Sec. VI-A plus the Fig. 1 GPUs).
var (
	TitanRTX  = device.TitanRTX
	GTX1080Ti = device.GTX1080Ti
	V100      = device.V100
	P100      = device.P100
)

// Models lists the built-in model zoo names.
func Models() []string { return models.Names() }

// Policies lists every policy name PlanBaseline and RunPolicy accept:
// the baselines, then "tsplit", "tsplit-nosplit" and "tsplit-offload".
func Policies() []string { return prep.PolicyNames() }

// PlanOptions tunes the TSPLIT planner.
type PlanOptions struct {
	// CapacityBytes overrides the device memory budget (0 = device).
	CapacityBytes int64
	// DisableSplit turns the planner into the "TSPLIT w/o Split"
	// ablation (swap/recompute only, cost-model guided).
	DisableSplit bool
	// PNums overrides the split-count search space.
	PNums []int
	// SafetyMargin plans against a budget reduced by this fraction,
	// reserving headroom for co-located jobs (see RunResilient).
	SafetyMargin float64
	// Observe receives planner metrics (nil = none).
	Observe Recorder
	// Trace records planner phase spans (nil = none, zero cost).
	Trace *Tracer
	// Flight receives plan-decision and failure events (nil = none).
	Flight *Flight
	// Postmortem, consulted by RunResilient only, snapshots the flight
	// ring, metrics, and span tree whenever the degradation ladder
	// escalates or aborts.
	Postmortem *Dumper
}

// Workload is a model prepared for planning and execution on a device.
// Its fields come from the embedded prep.Prepared: Name, Cfg, Dev, the
// graph G with its schedule Sched and liveness Lv, the profile Prof,
// and Planners, the pool every Plan call borrows a planner from.
type Workload struct {
	*prep.Prepared
}

// Load builds and profiles a zoo model for a device.
func Load(model string, cfg ModelConfig, dev Device) (*Workload, error) {
	return workload(prep.Build(model, cfg, dev))
}

// FromGraph prepares a user-built graph (see package graph builders)
// for planning on a device.
func FromGraph(name string, g *Graph, dev Device, cfg ModelConfig) (*Workload, error) {
	return workload(prep.FromGraph(name, g, cfg, dev))
}

func workload(p *prep.Prepared, err error) (*Workload, error) {
	if err != nil {
		return nil, err
	}
	return &Workload{p}, nil
}

// BaselinePeakBytes returns the unmanaged memory requirement (the Base
// policy's peak, paper Sec. IV-A M_i curve maximum).
func (w *Workload) BaselinePeakBytes() int64 { return w.Lv.Peak }

// IdealTime returns the profiled iteration time with no memory
// management (paper T = Σ T_i).
func (w *Workload) IdealTime() float64 { return w.Prof.Total() }

// Plan runs TSPLIT's model-guided planner (paper Algorithm 2).
func (w *Workload) Plan(opts PlanOptions) (*Plan, error) {
	plan, _, err := w.Prepared.Plan(opts.plannerOptions())
	return plan, err
}

// PlanWithReport runs the planner with introspection enabled and
// returns the plan together with its per-iteration decision report.
func (w *Workload) PlanWithReport(opts PlanOptions) (*Plan, *PlanReport, error) {
	o := opts.plannerOptions()
	o.CollectReport = true
	return w.Prepared.Plan(o)
}

// plannerOptions maps the options onto the planner's: the one mapping
// every planning entry point shares.
func (opts PlanOptions) plannerOptions() core.Options {
	return core.Options{
		Capacity:     opts.CapacityBytes,
		DisableSplit: opts.DisableSplit,
		PNums:        opts.PNums,
		SafetyMargin: opts.SafetyMargin,
		Obs:          opts.Observe,
		Trace:        opts.Trace,
		Flight:       opts.Flight,
	}
}

// VerifyPlan statically checks a plan — from the TSPLIT planner, a
// baseline, a deserialized artifact, or hand edits — against the
// workload's safety invariants: the memory curve stays under the
// device's capacity, no consumer runs while its input is evicted, split
// and micro-restore decisions pair up, recompute chains bottom out at
// recoverable tensors without cycles, and the plan's allocation pattern
// replays through the memory pool without overlap. It returns nil for
// a safe plan; a non-empty result means running the plan would diverge
// or OOM.
func (w *Workload) VerifyPlan(plan *Plan) []Violation {
	return core.VerifyAt(plan, w.G, w.Sched, w.Lv, w.Dev.MemBytes)
}

// PlanBaseline produces a baseline policy's plan ("base", "vdnn-conv",
// "vdnn-all", "checkpoints", "superneurons", "zero-offload",
// "fairscale-offload"), or a TSPLIT policy's under default options.
func (w *Workload) PlanBaseline(policy string) (*Plan, error) {
	plan, _, err := w.PlanPolicy(policy, core.Options{})
	return plan, err
}

// Report is a human-oriented summary of one simulated iteration.
type Report struct {
	// Throughput in samples/second.
	Throughput float64
	// IterationSeconds is the wall-clock time of one iteration.
	IterationSeconds float64
	// Overhead is the slowdown versus the ideal (unmanaged) run.
	Overhead float64
	// PeakGiB is the peak device memory used.
	PeakGiB float64
	// PCIeUtilization is the mean utilization of the two directions.
	PCIeUtilization float64
	// SwapGiB / RecomputedOps summarize memory traffic.
	SwapGiB       float64
	RecomputedOps int
	// Raw carries every runtime counter.
	Raw SimResult
}

// RunOption tunes one simulated run.
type RunOption func(*sim.Options)

// Observe streams the run's metrics into r.
func Observe(r Recorder) RunOption { return func(o *sim.Options) { o.Obs = r } }

// WithTimeline records the per-event execution timeline in the run's
// Raw result, for export with WriteTraceSpans.
func WithTimeline() RunOption { return func(o *sim.Options) { o.CollectTimeline = true } }

// WithTrace records the run as a "sim.run" span with per-op children
// in tr; export alongside the timeline with WriteTraceSpans.
func WithTrace(tr *Tracer) RunOption { return func(o *sim.Options) { o.Trace = tr } }

// WithFlight records OOMs, failures, and injected faults into fl.
func WithFlight(fl *Flight) RunOption { return func(o *sim.Options) { o.Flight = fl } }

// Run simulates one training iteration under the plan and returns the
// measurements, or an error when the plan does not fit the device
// (OOM — the configuration cannot train). The runtime recomputes as
// the policy that produced the plan does (Policies); a plan no policy
// names runs TSPLIT's LRU-hybrid strategy.
func (w *Workload) Run(plan *Plan, opts ...RunOption) (Report, error) {
	so := sim.Options{Recompute: prep.RecomputeOf(plan)}
	for _, o := range opts {
		o(&so)
	}
	res, err := w.Simulate(plan, so)
	if err != nil {
		return Report{}, err
	}
	return w.report(res), nil
}

// report summarizes a raw simulation result.
func (w *Workload) report(res SimResult) Report {
	r := Report{
		Throughput:       res.Throughput(w.Cfg.BatchSize),
		IterationSeconds: res.Time,
		PeakGiB:          float64(res.PeakBytes) / (1 << 30),
		PCIeUtilization:  res.PCIeUtilization,
		SwapGiB:          float64(res.SwapOutBytes+res.SwapInBytes) / (1 << 30),
		RecomputedOps:    res.RecomputedOps,
		Raw:              res,
	}
	if ideal := w.Prof.Total(); ideal > 0 {
		r.Overhead = (res.Time - ideal) / ideal
	}
	return r
}

// RunResilient plans and simulates one iteration under an injected
// fault environment (op-time misprediction, PCIe degradation,
// transient transfer failures, capacity shrink) with the
// graceful-degradation ladder: plan at a safety margin, replan at
// tighter budgets on injected OOM, and fall back to the swap-all
// baseline before ever aborting. The outcome records every ladder
// rung attempted; the report summarizes the surviving rung's run.
func (w *Workload) RunResilient(po PlanOptions, fc FaultConfig, opts ...RunOption) (ResilientOutcome, Report, error) {
	var so sim.Options
	for _, o := range opts {
		o(&so)
	}
	// The run options' recorder, tracer and flight ring cover the
	// whole ladder unless the plan options name their own.
	popts := po.plannerOptions()
	popts.CollectReport = true
	if popts.Obs == nil {
		popts.Obs = so.Obs
	}
	if popts.Trace == nil {
		popts.Trace = so.Trace
	}
	if popts.Flight == nil {
		popts.Flight = so.Flight
	}
	out, err := resilient.Run(w.Prepared, resilient.Config{
		Faults:  fc,
		Planner: popts,
		Sim:     so,
		Dumper:  po.Postmortem,
	})
	if err != nil {
		return out, Report{}, err
	}
	return out, w.report(out.Result), nil
}

// RunPolicy plans and simulates a named policy (Policies lists them).
// TSPLIT's entries run the paper's plan → trial-execution → replan
// loop: they plan under opts, and when the runtime validation hits
// allocator fragmentation they replan against a larger reserve (how
// the real system iterates between profiling and planning). A
// baseline ignores opts and runs once. The simulation
// uses the device's full memory, whatever opts.CapacityBytes plans
// against. It returns the plan that ran with its measurements.
func (w *Workload) RunPolicy(policy string, opts PlanOptions) (*Plan, Report, error) {
	plan, res, err := w.Prepared.RunPolicy(policy, opts.plannerOptions(), sim.Options{})
	if err != nil {
		return nil, Report{}, fmt.Errorf("tsplit: no feasible %s plan: %w", policy, err)
	}
	return plan, w.report(res), nil
}

// Augment materializes a plan as an augmented dataflow graph with
// split / merge / swap / recompute operators and control edges (paper
// Fig. 10), for export or inspection.
func (w *Workload) Augment(plan *Plan) (*core.Augmented, error) {
	return core.Augment(w.G, w.Sched, w.Lv, plan)
}

// ExportPlanJSON serializes a plan for framework integrations (the
// paper's Sec. VI-D conversion path).
func ExportPlanJSON(w io.Writer, plan *Plan) error { return core.ExportJSON(w, plan) }

// WriteTraceSpans exports a run's timeline (collect it with
// WithTimeline) in Chrome tracing format for chrome://tracing or
// https://ui.perfetto.dev, plus the tracer's span forest on its own
// "spans" lane (planner phases, per-op execution, ladder rungs). Either
// side may be empty (a nil tracer has no spans), but not both.
func WriteTraceSpans(w io.Writer, res SimResult, tr *Tracer) error {
	spans := tr.Tree()
	if len(res.Timeline) == 0 && len(spans) == 0 {
		return fmt.Errorf("tsplit: nothing to export (no spans, and no timeline: run with tsplit.WithTimeline())")
	}
	return sim.WriteChromeTraceSpans(w, res.Timeline, spans)
}
