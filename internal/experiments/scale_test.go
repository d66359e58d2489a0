package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
)

// cursorSearch drives a scaleCursor to completion against a predicate,
// the way searchMax drives itself.
func cursorSearch(feasible func(int) bool, hi int) int {
	c := newScaleCursor(hi)
	for c.probe > 0 {
		c.report(feasible(c.probe))
	}
	return c.lo
}

// TestScaleCursorMatchesSearchMax checks that the cursor asks for the
// same points in the same order as searchMax and lands on the same
// answer, for monotone predicates with the frontier below, at and
// above the bound, for bounds 0 and 1, and for predicates that are not
// monotone at all (where the answer is whatever the probe sequence
// makes it, so only an identical sequence gives an identical answer).
func TestScaleCursorMatchesSearchMax(t *testing.T) {
	check := func(name string, feasible func(int) bool, hi int) {
		t.Helper()
		var want, got []int
		wantN := searchMax(func(n int) bool { want = append(want, n); return feasible(n) }, hi)
		gotN := cursorSearch(func(n int) bool { got = append(got, n); return feasible(n) }, hi)
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s hi=%d: cursor = %d after probes %v, searchMax = %d after probes %v",
				name, hi, gotN, got, wantN, want)
		}
	}
	for _, hi := range []int{0, 1, 2, 3, 7, 8, 9, 100, 2048, 4096} {
		for _, frontier := range []int{0, 1, 2, hi - 1, hi, hi + 1, 2*hi + 3} {
			frontier := frontier
			check(fmt.Sprintf("frontier %d", frontier), func(n int) bool { return n <= frontier }, hi)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		hi := rng.Intn(300)
		frontier := rng.Intn(400)
		check("monotone", func(n int) bool { return n <= frontier }, hi)
		// Non-monotone: a monotone frontier with a seeded set of flipped
		// points, the shape fragmentation gives the real predicate.
		flipped := map[int]bool{}
		for k := rng.Intn(12); k > 0; k-- {
			flipped[1+rng.Intn(hi+2)] = true
		}
		check("non-monotone", func(n int) bool { return (n <= frontier) != flipped[n] }, hi)
		density := rng.Float64()
		noise := rand.New(rand.NewSource(int64(i)))
		verdicts := map[int]bool{}
		check("random", func(n int) bool {
			if _, seen := verdicts[n]; !seen {
				verdicts[n] = noise.Float64() < density
			}
			return verdicts[n]
		}, hi)
	}
}

// TestJointTableMatchesPerPolicy checks that driving every policy of
// every model together changes no cell: Tables IV-VII at a small bound
// equal the tables assembled from independent one-policy searches.
func TestJointTableMatchesPerPolicy(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	small := device.TitanRTX
	small.MemBytes = 6 << 30
	adam := models.Config{Optimizer: graph.Adam}
	cases := []struct {
		table    *ScaleTable
		policies []string
		search   func(model, policy string) int
	}{
		{Table4MaxSampleScale(small, 40), scalePolicies, func(m, p string) int {
			return MaxSampleScale(m, p, small, models.Config{}, 40)
		}},
		{Table5MaxParamScale(small, 6), scalePolicies, func(m, p string) int {
			return MaxParamScale(m, p, small, models.Config{}, 6)
		}},
		{Table6MaxSampleVsOffload(small, 40), offloadPolicies, func(m, p string) int {
			return MaxSampleScale(m, p, small, adam, 40)
		}},
		{Table7MaxParamVsOffload(small, 6), offloadPolicies, func(m, p string) int {
			return MaxParamScale(m, p, small, adam, 6)
		}},
	}
	for _, c := range cases {
		distinct := map[int]bool{}
		for _, m := range EvalModels {
			for _, p := range c.policies {
				want := -1
				if applicable(m, p) {
					want = c.search(m, p)
				}
				if got := c.table.Get(m, p); got != want {
					t.Errorf("%s: %s/%s = %d jointly, %d searched alone", c.table.Title, m, p, got, want)
				}
				distinct[want] = true
			}
		}
		if len(distinct) < 3 {
			t.Errorf("%s: only %d distinct cells; the bound is too small to tell the searches apart", c.table.Title, len(distinct))
		}
	}
}

// TestPreparedSharedAcrossPolicies pins Prepared as read-only under
// planning and simulation, and its planner pool as safe to share: one
// Prepared run by every policy forwards, backwards and from one
// goroutine per policy at once (run under -race) gives the plan bytes
// and simulation result a Prepared of its own gives each policy of
// the table.
func TestPreparedSharedAcrossPolicies(t *testing.T) {
	small := device.TitanRTX
	small.MemBytes = 6 << 30
	// Batch 48 fits most baselines; batch 96 takes TSPLIT up its
	// reserve ladder and fails tsplit-nosplit in the planner.
	for _, batch := range []int{48, 96} {
		testPreparedShared(t, models.Config{BatchSize: batch}, small)
	}
}

func testPreparedShared(t *testing.T, cfg models.Config, small device.Device) {
	type outcome struct {
		plan []byte
		r    PolicyResult
	}
	run := func(p *prep.Prepared, policy string) outcome {
		r := RunPolicy(p, policy)
		var buf bytes.Buffer
		if r.Plan != nil {
			if err := core.ExportJSON(&buf, r.Plan); err != nil {
				t.Error(err)
			}
		}
		r.Plan = nil
		return outcome{buf.Bytes(), r}
	}
	policies := prep.PolicyNames()
	want := make([]outcome, len(policies))
	feasible := 0
	for i, policy := range policies {
		own, err := prepare("vgg16", cfg, small)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = run(own, policy)
		if want[i].r.Feasible {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(policies) {
		t.Fatalf("batch %d: %d of %d policies feasible; the workload should split them", cfg.BatchSize, feasible, len(policies))
	}
	shared, err := prepare("vgg16", cfg, small)
	if err != nil {
		t.Fatal(err)
	}
	check := func(order string, i int, got outcome) {
		if !bytes.Equal(got.plan, want[i].plan) || !reflect.DeepEqual(got.r, want[i].r) {
			t.Errorf("batch %d %s: %s on the shared workload differs from its own workload", cfg.BatchSize, order, policies[i])
		}
	}
	for i := range policies {
		check("forwards", i, run(shared, policies[i]))
	}
	for i := len(policies) - 1; i >= 0; i-- {
		check("backwards", i, run(shared, policies[i]))
	}
	got := make([]outcome, len(policies))
	var wg sync.WaitGroup
	for i := range policies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(shared, policies[i])
		}(i)
	}
	wg.Wait()
	for i := range policies {
		check("concurrently", i, got[i])
	}
}

// freshTemplates gives the test an empty package template set and
// restores the process's set when the test ends, so the graph and slot
// counts the test reads do not depend on which tests ran before it.
func freshTemplates(t *testing.T) {
	old := templates
	templates = prep.NewTemplates()
	t.Cleanup(func() { templates = old })
}

// TestTable4GraphBuilds counts the work the Table IV search does: two
// graph builds per model, however many batch sizes it probes.
func TestTable4GraphBuilds(t *testing.T) {
	freshTemplates(t)
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()
	Table4MaxSampleScale(device.TitanRTX, 64)
	if got, want := reg.Counter(prep.GraphBuilds), int64(2*len(EvalModels)); got != want {
		t.Fatalf("Table IV search made %d graph builds, want %d", got, want)
	}
	if cells := reg.Counter("tsplit_experiments_cells_total"); cells <= int64(len(EvalModels)) {
		t.Fatalf("only %d probe points for %d models", cells, len(EvalModels))
	}
}

// TestTable4WorkloadSlots counts the cold graphs and planners behind
// the Table IV search: on one worker, every probe point of a model
// recycles the slot the previous one released, so the search allocates
// one slot per model however many points it probes.
func TestTable4WorkloadSlots(t *testing.T) {
	freshTemplates(t)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()
	Table4MaxSampleScale(device.TitanRTX, 64)
	if got, want := reg.Counter(prep.WorkloadSlots), int64(len(EvalModels)); got != want {
		t.Fatalf("Table IV search allocated %d workload slots, want %d", got, want)
	}
}

// TestTable4SecondSearchBuildsNothing: the templates, their slots and
// the slots' planners outlive the Table IV search. On one worker, a
// second search in the process builds no graph and allocates no slot,
// and answers the same table. On two workers, a further search adds at
// most one slot per model: the second one a model has in use at once.
func TestTable4SecondSearchBuildsNothing(t *testing.T) {
	freshTemplates(t)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()
	first := Table4MaxSampleScale(device.TitanRTX, 64)
	builds, slots := reg.Counter(prep.GraphBuilds), reg.Counter(prep.WorkloadSlots)
	second := Table4MaxSampleScale(device.TitanRTX, 64)
	if got := reg.Counter(prep.GraphBuilds) - builds; got != 0 {
		t.Fatalf("the second Table IV search made %d graph builds, want 0", got)
	}
	if got := reg.Counter(prep.WorkloadSlots) - slots; got != 0 {
		t.Fatalf("the second Table IV search allocated %d workload slots, want 0", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the second search answered another table:\n%s\nwant\n%s", second.Render(), first.Render())
	}

	runtime.GOMAXPROCS(2)
	slots = reg.Counter(prep.WorkloadSlots)
	Table4MaxSampleScale(device.TitanRTX, 64)
	if got := reg.Counter(prep.WorkloadSlots) - slots; got > int64(len(EvalModels)) {
		t.Fatalf("a search on 2 workers allocated %d more workload slots, want at most %d", got, len(EvalModels))
	}
}

// TestTable4SecondSearchAllocBytes pins the bytes a warm Table IV
// search allocates. On one worker, the second search plans every probe
// point on warm planners in a borrowed plan store (prep.RunStore), so
// the plans it drops after their verdicts allocate nothing; what is
// left is the search's own bookkeeping and the returned table, about
// 60 KB. Fresh plans for every (probe point, policy, rung) allocate
// about 4.5 MB.
func TestTable4SecondSearchAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own and drops pooled plan stores at random")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	Table4MaxSampleScale(device.TitanRTX, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Table4MaxSampleScale(device.TitanRTX, 64)
	runtime.ReadMemStats(&after)
	const bound = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("the second Table IV search allocated %d bytes, want at most %d", got, bound)
	}
}
