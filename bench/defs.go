package main

// metricDef is one row of BENCHMARK.json. The package test holds the
// two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which the metric
	// may get worse before -compare calls it regressed (end-to-end
	// metrics only).
	Bound float64
	// Exact marks a count or a simulated number: it has no run-to-run
	// spread, and two runs of one commit must report it identically.
	Exact bool
}

// exactBound is the bound of the exact metrics. They do not move
// unless the planner's or the simulator's output does; the bound is
// not 0 only so that a bound is always a positive share.
const exactBound = 0.001

// endToEnd are the metrics every untraced run reports. Host time
// unless marked simulated. The timing bounds are three times the
// run-to-run spread (quartile distance over median, ten seeds) this
// 2-core box shows on one commit: 4-8 % whatever the run length.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "req_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: exactBound, Exact: true},
	{Name: "peak_err_max_pct", Unit: "%", Better: "lower", Bound: exactBound, Exact: true},                    // simulated
	{Name: "table4_tsplit_geomean", Unit: "batch", Better: "higher", Bound: exactBound, Exact: true},          // simulated
	{Name: "table4_paper_err_pct", Unit: "%", Better: "lower", Bound: exactBound, Exact: true},                // simulated
	{Name: "fig12_tsplit_samples_per_s", Unit: "samples/s", Better: "higher", Bound: exactBound, Exact: true}, // simulated
	{Name: "table4_rows_ok", Unit: "count", Better: "higher", Bound: exactBound, Exact: true},                 // simulated
}

// perLayer are the metrics every traced run reports, layer = module
// name. A layer that does no work in a workload reports 0 there.
// "better" says which way an optimisation of the layer moves the row.
var perLayer = []metricDef{
	{Name: "serve.hit_handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.miss_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_coldwl_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.peak_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.peak_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.net_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "serve.planner_runs", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "serve.cache_evictions", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "serve.coalesced", Unit: "1/req", Better: "higher", Exact: true},
	{Name: "serve.shed", Unit: "1/req", Better: "lower", Exact: true},
	{Name: "serve.simpool_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.body_kb_p50", Unit: "KB", Better: "lower"},
	{Name: "core.plan_pooled_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plan_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.export_json_us", Unit: "us", Better: "lower"},
	{Name: "core.decisions_per_plan", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.allocs_per_plan", Unit: "count", Better: "lower"},
	{Name: "core.phase.index_build_us", Unit: "us", Better: "lower"},
	{Name: "core.phase.bottleneck_us", Unit: "us", Better: "lower"},
	{Name: "core.phase.fold_us", Unit: "us", Better: "lower"},
	{Name: "core.phase.finalize_us", Unit: "us", Better: "lower"},
	{Name: "sim.predict_peak_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_pooled_us", Unit: "us", Better: "lower"},
	{Name: "sim.ns_per_sched_op", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.swap_gb_per_iter", Unit: "GB", Better: "lower", Exact: true},  // simulated
	{Name: "sim.recomputed_ops", Unit: "count", Better: "lower", Exact: true}, // simulated
	{Name: "sim.stall_frac", Unit: "ratio", Better: "lower", Exact: true},     // simulated
	{Name: "sim.pcie_util", Unit: "ratio", Better: "higher", Exact: true},     // simulated
	{Name: "sim.compactions", Unit: "count", Better: "lower", Exact: true},    // simulated
	{Name: "memorypool.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "memorypool.frag_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "models.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.schedule_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.liveness_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler.new_ms", Unit: "ms", Better: "lower"},
	{Name: "baselines.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.cells_per_pass", Unit: "count", Better: "lower", Exact: true},
	{Name: "experiments.cell_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// defsFor returns the metrics a run of the given kind reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}
