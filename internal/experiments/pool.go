package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tsplit/internal/obs"
)

// Obs, when set before a sweep starts, receives per-unit metrics from
// every experiment in this package: tsplit_experiments_cells_total and
// the tsplit_experiments_cell_seconds histogram, one count and one
// sample per forEach unit, tsplit_experiments_graph_builds_total, one
// count per model graph built, and
// tsplit_experiments_workload_slots_total, one count per workload slot
// allocated (templates). The Registry is thread-safe, so the parallel
// sweeps record into it concurrently.
var Obs obs.Recorder

// Clock times each sweep unit for the cell_seconds histogram. Tests
// that assert on recorded metrics substitute a fake; everything the
// sweeps *compute* is independent of it.
var Clock obs.Clock = obs.Wall

// Trace, when set before a sweep starts, records one "experiments.cell"
// span per forEach unit. Tracer.StartSpan is mutex-protected, so the
// concurrent pool records root spans safely; within a worker the cell
// span is single-goroutine, honoring the per-span-tree contract.
var Trace *obs.Tracer

// The experiment sweeps parallelise over workloads. In the scale
// tables one forEach unit is a (model, probe point) group, in the
// throughput figures a (model, batch): the unit prepares that workload
// once — along the batch axis by rebatching the model's template, which
// the units share read-only, into a slot — runs it under every policy
// that needs it, and releases the slot, so at most one slot per worker
// is live and the process allocates about one per worker per model.
// The cell counter and the "experiments.cell" span therefore count
// workloads prepared, not (model, policy) table cells; the graph-build
// counter (buildGraph and templates) counts the models.Build calls
// behind them, and the slot counter the cold graphs and planners,
// which a search after the process's first no longer builds. Each unit
// writes its results into slots no other unit writes, so the assembled
// tables and figures are identical to a sequential sweep regardless of
// completion order.

// forEach runs fn(i) for every i in [0, n), on up to GOMAXPROCS
// workers. Work is handed out dynamically (units vary wildly in cost:
// an infeasible workload fails fast, one near TSPLIT's frontier plans
// up its whole reserve ladder). The Add-before-spawn / deferred-Done /
// Wait shape is load-bearing: every goroutine spawned here is joined
// before forEach returns, so no worker can outlive the sweep holding
// references into the caller-owned results slice
// (TestForEachCoversAllIndices fails without the Wait).
func forEach(n int, fn func(int)) {
	if rec := Obs; rec != nil {
		inner := fn
		fn = func(i int) {
			start := Clock()
			inner(i)
			rec.Observe("tsplit_experiments_cell_seconds", Clock().Sub(start).Seconds())
			rec.Add("tsplit_experiments_cells_total", 1)
		}
	}
	if tr := Trace; tr != nil {
		inner := fn
		fn = func(i int) {
			sp := tr.StartSpan("experiments.cell")
			sp.SetAttrInt("cell", int64(i))
			inner(i)
			sp.End()
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// firstError returns the lowest-index non-nil error, so concurrent
// sweeps report the same failure a sequential sweep would have hit
// first.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
