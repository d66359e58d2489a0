package prep

import (
	"fmt"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/sim"
)

// Policy is one memory-management policy of the evaluation (paper
// Sec. VI-A): how to plan it, how the runtime recomputes under its
// plans, and whether its trial run retries.
type Policy struct {
	// Name names the policy and every plan it produces (core.Plan.Name).
	Name string
	// Recompute is the runtime's recomputation strategy for the
	// policy's plans: LRU-hybrid for SuperNeurons and TSPLIT (TSPLIT
	// "adopts an LRU-based recomputation optimization", Sec. V-D),
	// memory-centric for the rest.
	Recompute sim.RecomputeStrategy
	// Planner marks TSPLIT's entries: they plan with the model-guided
	// planner, so core.Options' knobs apply, and RunPolicy retries them
	// down the reserve ladder. Baselines ignore the knobs and run once.
	Planner bool

	disableSplit, offload bool // a Planner entry's own options
}

// Policies is the policy table in the paper's table order: the
// baselines (baselines.Names), then TSPLIT, its "w/o Split" ablation
// (Fig. 14(a)) and its optimizer-offload variant (Tables VI/VII).
var Policies = []Policy{
	{Name: "base"},
	{Name: "vdnn-conv"},
	{Name: "vdnn-all"},
	{Name: "checkpoints"},
	{Name: "superneurons", Recompute: sim.LRURecompute},
	{Name: "zero-offload"},
	{Name: "fairscale-offload"},
	{Name: "tsplit", Recompute: sim.LRURecompute, Planner: true},
	{Name: "tsplit-nosplit", Recompute: sim.LRURecompute, Planner: true, disableSplit: true},
	{Name: "tsplit-offload", Recompute: sim.LRURecompute, Planner: true, offload: true},
}

// PolicyNames lists the table's names in table order.
func PolicyNames() []string {
	names := make([]string, len(Policies))
	for i, pol := range Policies {
		names[i] = pol.Name
	}
	return names
}

// Lookup returns the table entry named name.
func Lookup(name string) (*Policy, error) {
	for i := range Policies {
		if Policies[i].Name == name {
			return &Policies[i], nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have %v)", name, PolicyNames())
}

// RecomputeOf returns the recompute strategy plan runs with: its
// policy's, or TSPLIT's LRU-hybrid for a plan no entry names (an
// edited or hand-made plan).
func RecomputeOf(plan *core.Plan) sim.RecomputeStrategy {
	if pol, err := Lookup(plan.Name); err == nil {
		return pol.Recompute
	}
	return sim.LRURecompute
}

// PlanPolicy plans the named policy on the workload. A TSPLIT entry
// plans under opts plus its own DisableSplit or OffloadOptimizer on a
// planner borrowed from Planners, with the report opts.CollectReport
// asks for; a baseline ignores opts. The plan's lists are its own.
func (p *Prepared) PlanPolicy(name string, opts core.Options) (*core.Plan, *core.PlanReport, error) {
	return p.planPolicy(name, opts, nil)
}

// planPolicy is PlanPolicy with the plan's lists built in st
// (core.PlanStore).
func (p *Prepared) planPolicy(name string, opts core.Options, st *core.PlanStore) (*core.Plan, *core.PlanReport, error) {
	pol, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if !pol.Planner {
		plan, err := baselines.Registry[pol.Name](baselines.Inputs{G: p.G, Sched: p.Sched, Lv: p.Lv, Prof: p.Prof, Dev: p.Dev, Store: st})
		return plan, nil, err
	}
	opts.DisableSplit = opts.DisableSplit || pol.disableSplit
	opts.OffloadOptimizer = opts.OffloadOptimizer || pol.offload
	return p.planIn(opts, st)
}

// sims recycles simulator arenas across every Simulate in the process:
// a sweep stops allocating simulator state after one cell per worker.
// Pooled results are byte-identical to a fresh simulator's.
var sims = sim.NewSimPool()

// Simulate runs one training iteration of the workload under plan and
// so on a pooled simulator.
func (p *Prepared) Simulate(plan *core.Plan, so sim.Options) (sim.Result, error) {
	s := sims.Get(p.G, p.Sched, p.Lv, plan, p.Dev, so)
	res, err := s.Run()
	sims.Put(s)
	return res, err
}

// RunPolicy is the plan → trial-run loop: it plans the named policy
// under opts and simulates the plan under so with the policy's
// Recompute strategy. When a TSPLIT entry's plan or run fails, on
// allocator fragmentation say, it replans at the next reserve of the
// ladder, as the real system iterates between profiling and planning.
// It returns the last plan it made (nil when none) and the result of
// the run that succeeded, or the error of the last attempt. Every plan
// has lists of its own.
func (p *Prepared) RunPolicy(name string, opts core.Options, so sim.Options) (*core.Plan, sim.Result, error) {
	return p.RunPolicyIn(name, opts, so, nil)
}

// RunStore is reusable storage for the plans of RunPolicyIn: two plan
// stores (core.PlanStore), which the rungs of the reserve ladder
// alternate between, so a rung never writes over the last plan made
// before it — the plan RunPolicyIn returns when every later rung
// fails. A RunStore belongs to one caller at a time, never to a
// Prepared, which several goroutines share.
type RunStore [2]core.PlanStore

// RunPolicyIn is RunPolicy for a caller that keeps only the verdict:
// with a non-nil st, every rung builds its plan in st, and the returned
// plan lives until st's next use. A nil st is RunPolicy.
func (p *Prepared) RunPolicyIn(name string, opts core.Options, so sim.Options, st *RunStore) (*core.Plan, sim.Result, error) {
	pol, err := Lookup(name)
	if err != nil {
		return nil, sim.Result{}, err
	}
	so.Recompute = pol.Recompute
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = p.Dev.MemBytes
	}
	reserves := reserveLadder(capacity)
	if !pol.Planner {
		reserves = reserves[:1]
	}
	var last *core.Plan
	bank := 0 // the half of st the next rung plans in: not last's
	for _, rv := range reserves {
		opts.FragmentationReserve = rv
		plan, _, perr := p.planPolicy(name, opts, st.bank(bank))
		if perr != nil {
			err = perr
			continue
		}
		last = plan
		res, rerr := p.Simulate(plan, so)
		if rerr == nil {
			return plan, res, nil
		}
		err = rerr
		bank = 1 - bank
	}
	return last, sim.Result{}, err
}

// bank returns st's i-th plan store, or nil (fresh plans) when st is
// nil.
func (st *RunStore) bank(i int) *core.PlanStore {
	if st == nil {
		return nil
	}
	return &st[i]
}

// reserveLadder lists the FragmentationReserve values RunPolicy
// escalates through: the default (0), 6, 13 and 21 percent of
// capacity, and -1, no reserve (when resident parameters leave no
// slack only a reserve-free plan fits; the trial run still gates it).
func reserveLadder(capacity int64) []int64 {
	return []int64{0, capacity * 6 / 100, capacity * 13 / 100, capacity * 21 / 100, -1}
}
