package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tsplit/internal/obs"
)

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
// behind them, and the slot counter the cold graphs and arenas, which
// a Sweep's searches after its first no longer build. Each unit
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
func (s *Sweep) forEach(n int, fn func(int)) {
	if rec := s.Obs; rec != nil {
		inner := fn
		fn = func(i int) {
			start := obs.Wall()
			inner(i)
			rec.Observe("tsplit_experiments_cell_seconds", obs.Wall().Sub(start).Seconds())
			rec.Add("tsplit_experiments_cells_total", 1)
		}
	}
	if tr := s.Trace; tr != nil {
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
