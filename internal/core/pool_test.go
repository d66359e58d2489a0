package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
)

// TestPlannerPoolReuseIdentical checks the pool's core contract on
// every zoo model at a tight budget (58% of the unmanaged peak, the
// default config): a recycled planner produces byte-identical plans to
// a fresh one, round after round.
func TestPlannerPoolReuseIdentical(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			tb := newTestbed(t, model, models.Config{})
			opts := Options{Capacity: tb.lv.Peak * 58 / 100, FragmentationReserve: -1}

			pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
			fresh, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts).Plan()
			if err != nil {
				t.Fatalf("fresh plan: %v", err)
			}
			if len(fresh.Tensors)+len(fresh.Splits) == 0 {
				t.Fatal("the budget left the planner nothing to decide")
			}
			want := fresh.Describe()

			var last *Planner
			for round := 0; round < 4; round++ {
				pl := pp.Get(opts)
				if round > 0 && pl != last {
					t.Fatalf("round %d: pool did not recycle the planner", round)
				}
				plan, err := pl.Plan()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if got := plan.Describe(); got != want {
					t.Errorf("round %d: pooled plan diverged from fresh plan\n--- pooled ---\n%s--- fresh ---\n%s", round, got, want)
				}
				last = pl
				pp.Put(pl)
				if pp.Size() != 1 {
					t.Fatalf("round %d: pool size %d, want 1", round, pp.Size())
				}
			}
		})
	}
}

// TestPlannerPoolDropsForeign checks that planners built for another
// workload, or held across a rebatch of their own, are dropped instead
// of pooled.
func TestPlannerPoolDropsForeign(t *testing.T) {
	a := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	b := newTestbed(t, "resnet50", models.Config{BatchSize: 8})
	pp := NewPlannerPool(a.g, a.sched, a.lv, a.prof, a.dev)

	pp.Put(NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, Options{}))
	if pp.Size() != 0 {
		t.Fatalf("pool accepted a foreign planner (size %d)", pp.Size())
	}
	pp.Put(nil)
	if pp.Size() != 0 {
		t.Fatalf("pool accepted nil (size %d)", pp.Size())
	}
	// Device bandwidth prices splits and the device sets the default
	// capacity: a planner for another device plans this graph wrongly.
	other := device.P100
	pp.Put(NewPlanner(a.g, a.sched, a.lv, a.prof, other, Options{}))
	if pp.Size() != 0 {
		t.Fatalf("pool accepted a planner for device %s (size %d)", other.Name, pp.Size())
	}
	pp.Put(NewPlanner(a.g, a.sched, a.lv, a.prof, a.dev, Options{}))
	if pp.Size() != 1 {
		t.Fatalf("pool rejected its own planner (size %d)", pp.Size())
	}
	// A planner held across a rebatch of its graph planned a workload
	// the graph no longer holds.
	r := newRebatchedCase(t, "vgg16")
	r.rebatch(t, 8)
	held := r.pp.Get(Options{})
	if _, err := held.Plan(); err != nil {
		t.Fatal(err)
	}
	r.rebatch(t, 16)
	r.pp.Put(held)
	if r.pp.Size() != 0 {
		t.Fatalf("pool accepted a planner held across a rebatch (size %d)", r.pp.Size())
	}
	if _, err := held.Plan(); err != nil {
		t.Fatal(err)
	}
	r.pp.Put(held)
	if r.pp.Size() != 1 {
		t.Fatalf("pool rejected a planner that planned the current generation (size %d)", r.pp.Size())
	}
}

// TestPlannerPoolSteadyStateAllocs pins the arena-reuse goal: after
// the first run warms the pool, a pooled Plan() call stays under 100
// allocations (the ISSUE budget; the seed planner spent 7,387 on
// BERT-Large).
func TestPlannerPoolSteadyStateAllocs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	_, peak, _ := NewMemSim(tb.g, tb.sched, tb.lv).Curve(NewPlan("none", tb.dev))
	opts := Options{Capacity: peak * 60 / 100, FragmentationReserve: -1}

	pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
	pl := pp.Get(opts)
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("warm-up plan: %v", err)
	}
	pp.Put(pl)

	allocs := testing.AllocsPerRun(10, func() {
		pl := pp.Get(opts)
		if _, err := pl.Plan(); err != nil {
			t.Fatalf("pooled plan: %v", err)
		}
		pp.Put(pl)
	})
	if allocs > 100 {
		t.Errorf("steady-state pooled Plan() allocates %.0f times, want <= 100", allocs)
	}
	t.Logf("steady-state pooled Plan(): %.0f allocs", allocs)
}

// TestPlannerRepeatPlanAllocs pins a non-pooled planner's steady
// state: repeated Plan() calls on one planner, with no Put between
// them, allocate the returned plan and its two decision lists, written
// once from the planner's draft, and nothing else.
func TestPlannerRepeatPlanAllocs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	_, peak, _ := NewMemSim(tb.g, tb.sched, tb.lv).Curve(NewPlan("none", tb.dev))
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: peak * 60 / 100, FragmentationReserve: -1})
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("warm-up plan: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pl.Plan(); err != nil {
			t.Fatalf("repeat plan: %v", err)
		}
	})
	if allocs > 3 {
		t.Errorf("repeated Plan() allocates %.0f times, want <= 3", allocs)
	}
}

// TestPlannerPlanInAllocs pins the store path: repeated PlanIn calls
// on one planner and one PlanStore allocate the returned plan and
// nothing else, and each plan equals the fresh one.
func TestPlannerPlanInAllocs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	_, peak, _ := NewMemSim(tb.g, tb.sched, tb.lv).Curve(NewPlan("none", tb.dev))
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: peak * 60 / 100, FragmentationReserve: -1})
	want, err := pl.Plan()
	if err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	st := new(PlanStore)
	got, err := pl.PlanIn(st)
	if err != nil {
		t.Fatalf("plan in a store: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the plan built in a store differs from the fresh plan")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pl.PlanIn(st); err != nil {
			t.Fatalf("repeat plan: %v", err)
		}
	})
	if allocs > 1 {
		t.Errorf("repeated PlanIn allocates %.0f times, want <= 1", allocs)
	}
}

// historyCase is one graph the history-independence test walks.
type historyCase struct {
	name  string
	tb    *testbed
	floor int64 // bytes no decision can move (inputs, parameters)
}

func newHistoryCase(name string, tb *testbed) historyCase {
	var floor int64
	for _, x := range tb.g.Tensors {
		if x.Producer == nil {
			floor += x.Bytes()
		}
	}
	return historyCase{name, tb, floor}
}

func historyCases(t *testing.T) []historyCase {
	var cs []historyCase
	for _, model := range models.Names() {
		cs = append(cs, newHistoryCase(model, newTestbed(t, model, models.Config{})))
	}
	for seed := uint64(0); seed < 16; seed++ {
		cs = append(cs, newHistoryCase(fmt.Sprintf("rand%d", seed), fuzzRandTestbed(t, seed)))
	}
	return cs
}

// planOutcome renders everything a run returns: the canonical plan (a
// failed run's partial plan included), the error text and the report
// JSON.
func planOutcome(t *testing.T, pl *Planner) string {
	t.Helper()
	plan, err := pl.Plan()
	out := canonicalPlan(plan)
	if err != nil {
		out += "error: " + err.Error() + "\n"
	}
	if r := pl.Report(); r != nil {
		b, jerr := json.Marshal(r)
		if jerr != nil {
			t.Fatal(jerr)
		}
		out += string(b) + "\n"
	}
	return out
}

// currentListsDiffer returns the first position at which two planners'
// candidate indexes disagree on which configuration lists are current
// for the last run's final plan, or on a current list's contents; -1
// when they agree.
func currentListsDiffer(a, b *candIndex) int {
	for p := range a.pos {
		ab, bb := a.pos[p].state == posBuilt, b.pos[p].state == posBuilt
		if ab != bb {
			return p
		}
		if !ab {
			continue
		}
		x, y := a.posCfgs[p], b.posCfgs[p]
		if len(x) != len(y) {
			return p
		}
		for c := range x {
			if !reflect.DeepEqual(x[c], y[c]) {
				return p
			}
		}
	}
	return -1
}

// historyVariants are the option changes the history walk draws from:
// an option split pricing reads (PNums), ones it does not
// (SafetyMargin, DisableSplit), OffloadOptimizer, which moves
// optimizer state off the device even in an empty plan, and the
// ablation knobs, DisableRecompute above all: it skips the chain
// walks whose verdicts a planner caches across candidates.
var historyVariants = []func(*Options){
	func(*Options) {},
	func(o *Options) { o.PNums = []int{2, 8} },
	func(o *Options) { o.SafetyMargin = 0.1 },
	func(o *Options) { o.DisableSplit = true },
	func(o *Options) { o.OffloadOptimizer = true },
	func(o *Options) { o.DisableRecompute = true },
	func(o *Options) { o.PreferLargest = true },
	func(o *Options) { o.SplitLookahead = 2 },
	func(o *Options) { o.DisableGenTieBreak = true },
}

// historyStep runs one seeded step of the history walk on a pooled
// planner for c's workload and holds it to a fresh planner: plan,
// error and report must be equal, and so must the configuration lists
// current at the end of the run — a list priced against a stale plan
// rarely moves a winner, so the outcome alone would hide one.
func historyStep(t *testing.T, c historyCase, pp *PlannerPool, rng *rand.Rand, where string) {
	t.Helper()
	pct := int64(40 + rng.Intn(56))
	opts := Options{Capacity: c.floor + (c.tb.lv.Peak-c.floor)*pct/100, FragmentationReserve: -1}
	v := rng.Intn(len(historyVariants))
	historyVariants[v](&opts)
	opts.CollectReport = rng.Intn(3) == 0

	fresh := NewPlanner(c.tb.g, c.tb.sched, c.tb.lv, c.tb.prof, c.tb.dev, opts)
	want := planOutcome(t, fresh)
	pl := pp.Get(opts)
	got := planOutcome(t, pl)
	pp.Put(pl)
	where = fmt.Sprintf("%s (%d%% of peak, variant %d, report %v)", where, pct, v, opts.CollectReport)
	if got != want {
		t.Fatalf("%s: pooled run diverged from a fresh planner\n--- pooled ---\n%s--- fresh ---\n%s", where, got, want)
	}
	if fresh.ci.active != pl.ci.active {
		t.Fatalf("%s: the pooled index is active=%v, the fresh one %v", where, pl.ci.active, fresh.ci.active)
	}
	if !fresh.ci.active {
		return // no bottleneck: neither index ran
	}
	if p := currentListsDiffer(pl.ci, fresh.ci); p >= 0 {
		t.Fatalf("%s: position %d's current configuration list differs from a fresh planner's", where, p)
	}
}

// rebatchedCase is a workload recycled along the batch axis: one
// template, one graph.Workload rewritten in place, one profile
// refreshed in place and one planner pool that outlives every batch.
type rebatchedCase struct {
	model string
	tp    *graph.Template
	wl    graph.Workload
	prof  *profiler.Profile
	pp    *PlannerPool
}

func newRebatchedCase(t *testing.T, model string) *rebatchedCase {
	var gs [2]*graph.Graph
	for i := range gs {
		g, err := models.Build(model, models.Config{BatchSize: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	tp, err := graph.NewTemplate(gs[0], gs[1])
	if err != nil {
		t.Fatal(err)
	}
	return &rebatchedCase{model: model, tp: tp}
}

// rebatch recycles the workload to batch n and returns it as a
// history case.
func (r *rebatchedCase) rebatch(t *testing.T, n int) historyCase {
	r.tp.Rebatch(n, &r.wl)
	if r.pp == nil {
		r.prof = profiler.New(device.TitanRTX, r.wl.Sched)
		r.pp = NewPlannerPool(r.wl.G, r.wl.Sched, r.wl.Lv, r.prof, device.TitanRTX)
	} else {
		r.prof.Refresh()
	}
	tb := &testbed{g: r.wl.G, sched: r.wl.Sched, lv: r.wl.Lv, prof: r.prof, dev: device.TitanRTX}
	return newHistoryCase(fmt.Sprintf("%s@%d", r.model, n), tb)
}

// TestPlannerPoolHistoryIndependent holds a pooled planner to a fresh
// one while its history varies: each graph's planner walks a seeded
// sequence of budgets (40–95 % of the manageable peak) interleaved with
// option changes (historyVariants). Every run must equal a fresh
// planner's (historyStep), so nothing a planner carries across runs
// (the pristine split configuration lists above all) can leak one
// borrower's state into the next. The walk then recycles a graph
// through a scrambled sequence of batch sizes, interleaved with a
// second model's recycled graph: a pooled planner that survives the
// batch change must re-derive everything the sizes decide.
func TestPlannerPoolHistoryIndependent(t *testing.T) {
	for k, c := range historyCases(t) {
		pp := NewPlannerPool(c.tb.g, c.tb.sched, c.tb.lv, c.tb.prof, c.tb.dev)
		rng := rand.New(rand.NewSource(int64(k) + 1))
		for step := 0; step < 40; step++ {
			historyStep(t, c, pp, rng, fmt.Sprintf("%s step %d", c.name, step))
		}
	}
	a, b := newRebatchedCase(t, "vgg16"), newRebatchedCase(t, "resnet50")
	rng := rand.New(rand.NewSource(7))
	bBatches := []int{96, 8, 512, 96, 1}
	for i, n := range []int{1, 2048, 64, 440, 64} {
		for _, r := range []struct {
			rc *rebatchedCase
			n  int
		}{{a, n}, {b, bBatches[i]}} {
			c := r.rc.rebatch(t, r.n)
			for step := 0; step < 6; step++ {
				historyStep(t, c, r.rc.pp, rng, fmt.Sprintf("%s step %d", c.name, step))
			}
		}
	}
}

// TestPlannerPoolReusesPristineConfigs pins the reuse itself, which the
// identity tests cannot see: after one warm-up run at another budget, a
// pooled BERT-Large plan derives fewer than 5 % of the split
// configurations a fresh planner derives, and reuses the rest. The
// warm-up budget is the tighter one, so its lookahead has visited the
// positions the measured run visits.
func TestPlannerPoolReusesPristineConfigs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 64})
	opts := Options{Capacity: tb.lv.Peak * 60 / 100, FragmentationReserve: -1}
	warm := Options{Capacity: tb.lv.Peak * 50 / 100, FragmentationReserve: -1}

	fresh := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts)
	if _, err := fresh.Plan(); err != nil {
		t.Fatalf("fresh plan: %v", err)
	}
	pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
	pl := pp.Get(warm)
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("warm-up plan: %v", err)
	}
	pp.Put(pl)
	pl = pp.Get(opts)
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("pooled plan: %v", err)
	}
	want, got := fresh.ci.derived, pl.ci.derived
	if want == 0 {
		t.Fatal("the fresh run derived no split configurations")
	}
	if got*20 >= want {
		t.Errorf("pooled run derived %d split configurations, fresh run %d: want fewer than 5 %%", got, want)
	}
	t.Logf("derived configurations: fresh %d, pooled %d", want, got)
}

// TestPristineListRederivedAfterChainDependency pins buildPos's
// chain-dependency check, which the history walk exercises only
// rarely: a pristine list is reused while the plan is empty, and
// derived again once a tensor its chain walks queried gains a plan
// entry, though the op and its inputs are still undecided.
func TestPristineListRederivedAfterChainDependency(t *testing.T) {
	tb := newTestbed(t, "inceptionv4", models.Config{})
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, Options{Capacity: tb.lv.Peak * 50 / 100, FragmentationReserve: -1})
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("first plan: %v", err)
	}
	pl.beginRun()
	ci := pl.ci
	ci.ensure(0)
	for id, refs := range ci.revDep {
		for _, ref := range refs {
			p := int(ref.owner) - ci.nT
			if p < 0 || ci.depEpoch[ref.owner] != ref.epoch || ci.pos[p].pristine == 0 {
				continue
			}
			op := pl.Sched.Ops[p]
			if slices.Contains(op.Inputs, pl.G.Tensors[id]) {
				continue
			}
			ci.buildPos(p)
			if ci.derived != 0 {
				t.Fatalf("position %d (%s): pristine list derived again under the empty plan", p, op.Name)
			}
			x := pl.G.Tensors[id]
			pl.putTensor(id, TensorPlan{Tensor: x, Opt: Recompute, EvictAt: p, RestoreAt: p + 1, PrefetchAt: p + 1})
			ci.noteTensorPlanChanged(id)
			ci.buildPos(p)
			if ci.derived == 0 {
				t.Fatalf("position %d (%s): pristine list reused after its chain dependency %s gained a plan entry", p, op.Name, x.Name)
			}
			return
		}
	}
	t.Fatal("no pristine list with a chain dependency outside its op's inputs")
}
