package core

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/obs"
	"tsplit/internal/profiler"
	"tsplit/internal/tensor"
)

// The planner's fixed bounds.
const (
	// maxRecomputeChain bounds the forward subgraph a recompute may
	// re-execute, in ops.
	maxRecomputeChain = 24
	// maxIterations bounds planning work, in decisions.
	maxIterations = 20000
)

// Options tunes the planner. The zero value is the paper's
// configuration: split enabled, p_num searched over powers of two,
// recompute chains bounded (maxRecomputeChain).
type Options struct {
	// Capacity overrides the device memory budget (0 = dev.MemBytes).
	// Experiments use it to emulate memory over-subscription.
	Capacity int64
	// DisableSplit turns off the tensor-splitting strategy — the
	// "TSPLIT w/o Split" ablation of paper Fig. 14(a).
	DisableSplit bool
	// PNums is the split-count search space (default 2,4,8,16,32).
	PNums []int
	// FragmentationReserve is headroom subtracted from the capacity
	// the planner targets, absorbing allocator fragmentation and
	// transient regeneration buffers at run time (default
	// max(256 MiB, 3% of capacity); negative disables).
	FragmentationReserve int64
	// SafetyMargin plans against a budget reduced by this fraction of
	// the capacity (applied before the fragmentation reserve),
	// reserving headroom for a hostile environment — co-located jobs
	// stealing memory mid-iteration. The degradation ladder escalates
	// it on injected OOM. Clamped to [0, 0.9]; zero disables.
	SafetyMargin float64
	// OffloadOptimizer composes TSPLIT's activation planning with
	// CPU-side optimizer state and updates (the configuration used for
	// the PyTorch offload comparison, paper Sec. VI-D).
	OffloadOptimizer bool

	// --- ablation knobs (DESIGN.md §4) ---

	// PreferLargest replaces the greedy min-ΔT/ΔM selection with a
	// largest-ΔM-first heuristic (ablation 1).
	PreferLargest bool
	// DisableRecompute restricts Step 1 to swapping (ablation 1's
	// swap-only variant).
	DisableRecompute bool
	// SplitLookahead is how many schedule positions past the
	// bottleneck split candidates are considered at (default 8;
	// ablation 3 sets it negative to disable the lookahead).
	SplitLookahead int
	// DisableGenTieBreak turns off the earlier-generated-tensor
	// preference on near-tied ratios (ablation 4).
	DisableGenTieBreak bool

	// Obs receives planner metrics (candidates scored, decisions by
	// kind, chain-refresh savings, plan latency). Nil disables all
	// observation; the nil path adds no allocations to Plan().
	Obs obs.Recorder
	// Clock supplies the wall clock for the plan-latency metric (nil =
	// obs.Wall). It is injectable so the clockdet lint rule can keep
	// time.Now banned from this package: nothing a plan contains may
	// depend on when it was computed.
	Clock obs.Clock
	// CollectReport makes Plan() assemble a PlanReport (per-iteration
	// decision log), retrievable with Planner.Report().
	CollectReport bool
	// Trace receives phase spans: the run root ("planner.plan"), the
	// candidate-index build, each iteration's bottleneck search and
	// winner fold, and finalize.
	// Nil disables tracing; like Obs, the nil path must add no
	// allocations to Plan() (bench-guard).
	Trace *obs.Tracer
	// Flight receives structured events — plan decisions and
	// failures — on the postmortem ring buffer. Nil disables.
	Flight *obs.Flight

	// defaulted marks an Options value that already went through
	// withDefaults: applying defaults twice must not subtract the
	// FragmentationReserve from Capacity again.
	defaulted bool
}

func (o Options) withDefaults(dev device.Device) Options {
	if o.defaulted {
		return o
	}
	o.defaulted = true
	if o.Capacity == 0 {
		o.Capacity = dev.MemBytes
	}
	if o.SafetyMargin > 0 {
		if o.SafetyMargin > 0.9 {
			o.SafetyMargin = 0.9
		}
		o.Capacity -= int64(float64(o.Capacity) * o.SafetyMargin)
	}
	if o.SafetyMargin < 0 {
		o.SafetyMargin = 0
	}
	if o.FragmentationReserve == 0 {
		o.FragmentationReserve = o.Capacity * 3 / 100
		if o.FragmentationReserve < 256*(1<<20) {
			o.FragmentationReserve = 256 * (1 << 20)
		}
	}
	if o.FragmentationReserve > 0 {
		o.Capacity -= o.FragmentationReserve
	}
	if len(o.PNums) == 0 {
		o.PNums = []int{2, 4, 8, 16, 32}
	}
	if o.SplitLookahead == 0 {
		o.SplitLookahead = 8
	}
	if o.SplitLookahead < 0 {
		o.SplitLookahead = 0
	}
	if o.Clock == nil {
		o.Clock = obs.Wall
	}
	return o
}

// Planner implements the model-guided planning of paper Algorithm 2:
// simulate the memory requirement along the schedule; at each memory
// bottleneck score every candidate action — swap or recompute of a
// live tensor (Step 1), or a split of the bottleneck operator jointly
// with micro-tensor eviction (Step 2) — by its ΔT/ΔM ratio, commit the
// cheapest (Step 3), and repeat until the whole schedule fits the
// device.
//
// A planner is reusable: every Plan() call resets the pooled per-run
// state (occupancy, curve, candidate index) in place,
// so steady-state planning allocates almost nothing (see PlannerPool
// and DESIGN.md §7). A planner is not safe for concurrent use.
type Planner struct {
	G     *graph.Graph
	Sched *graph.Schedule
	Lv    *graph.Liveness
	Prof  *profiler.Profile
	Dev   device.Device
	Opts  Options

	ms  *MemSim
	occ *profiler.Occupancy
	// plan is the run's result: its name, options and predictions are
	// set as the run goes, its decision lists from draft at the finish.
	plan *Plan
	draft
	extraTime float64
	// Unhidden swap-out time per tensor ID so the early-out refinement
	// knows where splitting a producer helps. ID-indexed array plus an
	// append-order ID list (each tensor is planned at most once per
	// run) — no map, no steady-state allocations.
	swapStallOf  []float64
	swapStallIDs []int32

	// --- incremental planning state (see incremental.go, candindex.go) ---

	curve *memCurve
	ci    *candIndex
	// ID-indexed mirrors of the liveness/schedule maps: the scoring
	// loops run millions of lookups per plan and array indexing is
	// several times cheaper than map access. firstOf, lastOf and opPos
	// alias the MemSim's arrays (one set, one index step).
	firstOf []int   // Lv.FirstUse by tensor ID
	lastOf  []int   // Lv.LastUse by tensor ID
	usesOf  [][]int // sorted consumer schedule indices by tensor ID
	opPos   []int   // schedule position by op ID
	walker  *ChainWalker
	// graphGen is the graph generation the arenas were derived for.
	graphGen uint64
	// touchScratch collects the tensor IDs a chain walk queried — the
	// dependency set the candidate index registers.
	touchScratch []int32
	// Fold scratch for the candidate-index scan (candindex.go): the
	// scan writes each priced candidate into foldTmp and keeps the
	// running winners in foldPos/foldBest, so pricing allocates nothing.
	foldTmp, foldPos, foldBest candidate
	// planDelta backing storage, reused across commits (noteChanges
	// consumes the delta before the next commit).
	deltaT1 [1]*graph.Tensor
	deltaO1 [1]*graph.Op
	deltaTN []*graph.Tensor

	// --- observability state (see report.go) ---

	report *PlanReport
	// Aggregate tallies kept as plain integers so the hot loop never
	// touches the Recorder; they are emitted once at the end of Plan().
	statIters     int64
	statCands     int64
	statRederived int64
	statSkipped   int64
	statRescored  int64
	// recomputeIDs lists the tensors holding a committed recompute
	// decision, ascending — the chains the refresh passes are
	// responsible for.
	recomputeIDs []int32
	statStart    time.Time
	// runSpan is the root span of the run in flight; phase spans
	// attach under it (including from candindex.go). Nil whenever
	// Options.Trace is nil — the nil-span no-op path.
	runSpan *obs.Span
}

// NewPlanner returns an empty planner for one (graph, schedule,
// device). It derives its arenas from the workload on its first run.
func NewPlanner(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, prof *profiler.Profile, dev device.Device, opts Options) *Planner {
	return &Planner{G: g, Sched: sched, Lv: lv, Prof: prof, Dev: dev, Opts: opts.withDefaults(dev)}
}

// SetOptions replaces the planner's options for subsequent Plan()
// calls (the PlannerPool hands out recycled planners this way).
func (pl *Planner) SetOptions(opts Options) {
	pl.Opts = opts.withDefaults(pl.Dev)
}

// Reset drops the last run's report before the planner is pooled. The
// pooled scratch (curve, candidate index, occupancy, draft) and the
// pristine split configuration lists are kept for reuse;
// the scratch is reset in place at the top of every run regardless.
func (pl *Planner) Reset() {
	pl.report = nil
}

// derive brings the planner's arenas to the workload its graph holds
// now, at the top of a run. The graph's pointer fixes its topology,
// and the first run sizes the arenas and derives what the topology
// alone decides: the ID-indexed liveness and schedule mirrors, the
// chain walker, the candidate index's event lists. The graph's
// generation names its sizes (graph.Template.Rebatch rewrites them in
// place), and every first run at a generation re-derives, inside the
// same arenas, what they decide: the occupancy's per-op rates, the
// curve's pristine snapshot and the candidate index's tensor sizes,
// transfer times and input positions. The pristine split
// configuration lists and chain costs follow from their own keys.
func (pl *Planner) derive() {
	gen := pl.G.Generation()
	if pl.ms != nil && pl.graphGen == gen {
		return
	}
	if pl.ms == nil {
		pl.ms = NewMemSim(pl.G, pl.Sched, pl.Lv)
		pl.initAccel()
		pl.occ = profiler.NewOccupancy(pl.Prof)
		pl.curve = newMemCurve(pl.ms)
		pl.ci = newCandIndex(pl)
	}
	pl.graphGen = gen
	pl.occ.Retime()
	pl.curve.stale = true
	pl.ci.derive()
}

// initAccel precomputes the ID-indexed lookup arrays and the reusable
// chain walker. IDs are dense (graph.Graph.Tensors), so every array is
// sized by the graph.
func (pl *Planner) initAccel() {
	nT := len(pl.G.Tensors)
	pl.firstOf, pl.lastOf, pl.opPos = pl.ms.firstOf, pl.ms.lastOf, pl.ms.opPos
	pl.usesOf = make([][]int, nT)
	// The usesOf rows are carved from one array sized by the total
	// consumer count; the 3-index slices keep any row from growing into
	// the next.
	nUses := 0
	for _, t := range pl.G.Tensors {
		nUses += len(t.Consumers)
	}
	all := make([]int, 0, nUses)
	for _, t := range pl.G.Tensors {
		start := len(all)
		all = appendUses(all, t, pl.Sched)
		pl.usesOf[t.ID] = all[start:len(all):len(all)]
	}
	pl.walker = newChainWalker(len(pl.G.Ops))
	pl.swapStallOf = make([]float64, nT)
	pl.draft = newDraft(nT, len(pl.G.Ops))
}

// draft is a plan under construction, indexed by ID: the planner's
// working store. Scoring looks entries up hundreds of thousands of
// times per plan; finishRun writes the plan's two ID-ordered lists
// from it once.
type draft struct {
	tplans []TensorPlan // by tensor ID; an entry where tpSet
	tpSet  []bool
	splits []OpSplit // by op ID; an entry where spSet
	spSet  []bool
}

func newDraft(nT, nOps int) draft {
	return draft{
		tplans: make([]TensorPlan, nT), tpSet: make([]bool, nT),
		splits: make([]OpSplit, nOps), spSet: make([]bool, nOps),
	}
}

// tensor returns tensor id's entry, or the zero TensorPlan (reside).
func (d *draft) tensor(id int) TensorPlan {
	if d.tpSet[id] {
		return d.tplans[id]
	}
	return TensorPlan{}
}

func (d *draft) putTensor(id int, tp TensorPlan) {
	d.tplans[id] = tp
	d.tpSet[id] = true
}

func (d *draft) putSplit(sp OpSplit) {
	d.splits[sp.Op.ID] = sp
	d.spSet[sp.Op.ID] = true
}

// writeTo sets p's decision lists from the draft: ID order, exact
// size, nil when empty, in st's storage, or on the fresh path (st nil)
// in storage of their own, so p shares nothing with the next run.
func (d *draft) writeTo(p *Plan, st *PlanStore) {
	p.Tensors = entries(st.Tensors(setCount(d.tpSet)), d.tplans, d.tpSet)
	p.Splits = entries(st.splitList(setCount(d.spSet)), d.splits, d.spSet)
}

// setCount returns how many flags of set are up.
func setCount(set []bool) int {
	n := 0
	for _, ok := range set {
		if ok {
			n++
		}
	}
	return n
}

// entries appends the elements of all whose set flag is up to list,
// which has room for them, in index order, and returns it (nil when
// there are none).
func entries[T any](list []T, all []T, set []bool) []T {
	for id, ok := range set {
		if ok {
			list = append(list, all[id])
		}
	}
	if len(list) == 0 {
		return nil
	}
	return list
}

// inputsUndecided reports whether none of op's inputs has a plan entry.
func (pl *Planner) inputsUndecided(op *graph.Op) bool {
	for _, t := range op.Inputs {
		if pl.tpSet[t.ID] {
			return false
		}
	}
	return true
}

// candidate is one scored planning action, held by value in the
// scoring buffers. The decision payload replaces the old
// apply-closure: committing is a planner method (applyCandidate) that
// also reports which tensors and ops it changed, which the incremental
// curve and candidate index need.
type candidate struct {
	valid   bool
	isSplit bool
	// ratio is ΔT/ΔM, the greedy key (seconds per byte).
	ratio  float64
	deltaT float64
	deltaM int64
	genIdx int // production index, for the earlier-tensor tie-break

	// pos anchors the decision in the schedule: the bottleneck index
	// for an eviction, the split op's position for a split.
	pos       int
	evictAt   int
	restoreAt int

	// eviction payload
	t          *graph.Tensor
	opt        MemOpt
	transfer   float64
	stallOut   float64
	chainBytes int64

	// split payload
	split    OpSplit
	splitNew bool // the op had no previous split decision
	in       *graph.Tensor
	inOpt    MemOpt
}

// ErrInfeasible is returned when no remaining action can break a
// memory bottleneck — the configuration cannot train (the × entries of
// the paper's Tables IV/V).
var ErrInfeasible = fmt.Errorf("core: no strategy can fit the schedule in device memory")

// Plan runs Algorithm 2 and returns the strategy configuration, with
// decision lists of its own. On failure the partial plan built so far
// is returned alongside the error, for diagnostics.
func (pl *Planner) Plan() (*Plan, error) {
	return pl.PlanIn(nil)
}

// PlanIn is Plan with the plan's decision lists built in st's storage
// (see PlanStore): the returned plan, partial or not, lives until st's
// next use. A nil st is Plan.
func (pl *Planner) PlanIn(st *PlanStore) (*Plan, error) {
	sp := pl.Opts.Trace.StartSpan("planner.plan")
	pl.runSpan = sp
	pl.beginRun()
	plan, err := pl.finishRun(pl.greedyIncremental(), st)
	sp.End()
	pl.runSpan = nil
	return plan, err
}

// beginRun derives the arenas for the workload (derive) and resets all
// per-run state in place: a fresh Plan (previously returned plans must
// stay valid) and the pooled draft/occupancy/curve/candidate-index
// scratch.
func (pl *Planner) beginRun() {
	pl.derive()
	pl.plan = NewPlan("tsplit", pl.Dev)
	if pl.Opts.DisableSplit {
		pl.plan.Name = "tsplit-nosplit"
	}
	if pl.Opts.OffloadOptimizer {
		pl.plan.Name = "tsplit-offload"
		pl.plan.OffloadOptimizer = true
	}
	pl.occ.Reset()
	for _, id := range pl.swapStallIDs {
		pl.swapStallOf[id] = 0
	}
	pl.swapStallIDs = pl.swapStallIDs[:0]
	clear(pl.tpSet)
	clear(pl.spSet)
	pl.extraTime = 0
	pl.statIters, pl.statCands, pl.statRederived, pl.statSkipped = 0, 0, 0, 0
	pl.statRescored = 0
	pl.recomputeIDs = pl.recomputeIDs[:0]
	pl.report = nil
	if pl.Opts.Obs != nil {
		pl.statStart = pl.Opts.Clock()
	}
	if pl.Opts.CollectReport {
		pl.report = &PlanReport{
			Policy: pl.plan.Name, Device: pl.Dev.Name,
			CapacityBytes: pl.Opts.Capacity, SafetyMargin: pl.Opts.SafetyMargin,
		}
	}
	pl.curve.reset(pl.plan)
	pl.ci.deactivate()
}

// finishRun completes a run: the early-out refinement, the final peak
// from the incremental curve, the plan's decision lists and
// observation, the lists written in st. A failed run returns the
// partial plan built so far.
func (pl *Planner) finishRun(err error, st *PlanStore) (*Plan, error) {
	if err != nil {
		pl.draft.writeTo(pl.plan, st)
		return pl.plan, err
	}
	fsp := pl.runSpan.StartSpan("planner.finalize")
	if !pl.Opts.DisableSplit {
		pl.earlyOutPass()
	}
	_, peak, _ := pl.curve.scan()
	pl.draft.writeTo(pl.plan, st)
	fsp.End()
	pl.plan.PredictedPeak = peak
	pl.plan.PredictedTime = pl.Prof.Total() + pl.extraTime
	pl.finishObservation(peak)
	return pl.plan, nil
}

// greedyIncremental is the greedy loop: dirty-set chain refresh, a
// bottleneck scan resumed from min(previous bottleneck, lowest index
// where memory may have increased), and candidate pricing through the
// invalidating index.
func (pl *Planner) greedyIncremental() error {
	capB := pl.Opts.Capacity
	prevBtl := 0
	for iter := 0; ; iter++ {
		if iter >= maxIterations {
			pl.countFailure("nonconverged")
			return fmt.Errorf("core: planning did not converge in %d iterations", iter)
		}
		rederived := pl.refreshChainsDirty()
		pl.statRederived += int64(rederived)
		if skipped := len(pl.recomputeIDs) - rederived; skipped > 0 {
			pl.statSkipped += int64(skipped)
		}
		var peak int64
		if pl.report != nil {
			// Report mode pays for a full curve scan per iteration to
			// record peak trajectories; the no-report hot path does not.
			_, peak, _ = pl.curve.scan()
			if n := len(pl.report.Decisions); n > 0 {
				pl.report.Decisions[n-1].PeakAfter = peak
			} else {
				pl.report.InitialPeakBytes = peak
			}
		}
		bsp := pl.runSpan.StartSpan("planner.bottleneck")
		i, memAtI, found := pl.curve.bottleneck(capB, prevBtl)
		bsp.End()
		if !found {
			return nil
		}
		fsp := pl.runSpan.StartSpan("planner.fold")
		best, scored := pl.bestIncremental(i)
		fsp.End()
		pl.statCands += int64(scored)
		if best == nil {
			pl.countFailure("infeasible")
			return fmt.Errorf("%w (bottleneck at op %d %s: need %.1f MiB over capacity)",
				ErrInfeasible, i, pl.Sched.Ops[i], float64(memAtI-capB)/(1<<20))
		}
		pl.statIters++
		if pl.report != nil {
			pl.report.Decisions = append(pl.report.Decisions,
				pl.decisionRecord(iter, i, memAtI-capB, peak, scored, rederived, best))
		}
		delta := pl.applyCandidate(best)
		pl.noteChanges(delta)
		pl.recordDecisionEvent(iter, i, best)
		pl.extraTime += best.deltaT
		prevBtl = i
	}
}

// bestIncremental prices the candidate pool through the index: advance
// the liveness windows to bottleneck i, re-derive only the stale
// cached chains and split configurations, then fold every live
// candidate in exactly the serial scan order (betterKey is not
// associative, so the order is load-bearing).
func (pl *Planner) bestIncremental(i int) (*candidate, int) {
	pl.ci.ensure(i)
	pl.ci.refreshCandChains()
	return pl.ci.best(i)
}

// Report returns the introspection record of the last Plan() call, or
// nil unless Options.CollectReport was set.
func (pl *Planner) Report() *PlanReport { return pl.report }

// decisionRecord assembles the PlanDecision for a committed candidate.
// PeakAfter is filled by the next iteration's curve scan.
func (pl *Planner) decisionRecord(iter, i int, over, peak int64, scored, rederived int, c *candidate) PlanDecision {
	d := PlanDecision{
		Iter: iter, Bottleneck: i, BottleneckOp: pl.Sched.Ops[i].Name,
		OverBytes: over, PeakBefore: peak,
		Candidates: scored, Kind: decisionKind(c),
		Ratio: c.ratio, DeltaTSeconds: c.deltaT, DeltaMBytes: c.deltaM,
		ChainsRederived: rederived, ChainsTracked: len(pl.recomputeIDs),
	}
	if c.isSplit {
		d.Op = c.split.Op.Name
		d.PNum = c.split.PNum
		d.Dim = c.split.Dim.String()
		d.InOpt = c.split.InOpt.String()
		if c.in != nil {
			d.Tensor = c.in.Name
		}
	} else {
		d.Tensor = c.t.Name
	}
	return d
}

// countFailure records a failed Plan() outcome on the Recorder and
// the flight ring.
func (pl *Planner) countFailure(reason string) {
	if rec := pl.Opts.Obs; rec != nil {
		rec.Add("tsplit_planner_failures_total", 1, obs.L("reason", reason))
	}
	pl.Opts.Flight.Record("plan.failure", reason)
}

// recordDecisionEvent posts one committed greedy decision to the
// flight ring. Guarded so the nil-Flight hot path pays only the nil
// check (the variadic attrs would otherwise allocate per iteration).
func (pl *Planner) recordDecisionEvent(iter, i int, c *candidate) {
	fl := pl.Opts.Flight
	if fl == nil {
		return
	}
	subject := ""
	if c.isSplit {
		subject = c.split.Op.Name
	} else if c.t != nil {
		subject = c.t.Name
	}
	fl.Record("plan.decision", subject,
		obs.L("kind", decisionKind(c)),
		obs.L("iter", strconv.Itoa(iter)),
		obs.L("bottleneck", pl.Sched.Ops[i].Name))
}

// finishObservation finalizes the report and emits the aggregated
// planner metrics. All hot-loop tallies are plain integers; this is the
// only place the Recorder is touched on the success path.
func (pl *Planner) finishObservation(finalPeak int64) {
	if pl.report == nil && pl.Opts.Obs == nil {
		return
	}
	counts := pl.plan.Counts()
	if r := pl.report; r != nil {
		r.FinalPeakBytes = finalPeak
		r.PredictedTimeSeconds = pl.plan.PredictedTime
		r.ExtraTimeSeconds = pl.extraTime
		r.CandidatesScored = pl.statCands
		r.ChainsRederived = pl.statRederived
		r.ChainsSkipped = pl.statSkipped
		r.CandidatesRescored = pl.statRescored
		r.MeanPCIeOccupancy = pl.occ.Mean()
		for _, sp := range pl.plan.Splits {
			if sp.EarlyOut {
				r.EarlyOutSplits = append(r.EarlyOutSplits, sp.Op.Name)
			}
		}
	}
	rec := pl.Opts.Obs
	if rec == nil {
		return
	}
	rec.Add("tsplit_planner_plans_total", 1)
	rec.Add("tsplit_planner_iterations_total", pl.statIters)
	rec.Add("tsplit_planner_candidates_scored_total", pl.statCands)
	rec.Add("tsplit_planner_chains_rederived_total", pl.statRederived)
	rec.Add("tsplit_planner_chains_skipped_total", pl.statSkipped)
	rec.Add("tsplit_planner_candidates_rescored_total", pl.statRescored)
	rec.Add("tsplit_planner_decisions_total", int64(counts.Swap), obs.L("kind", "swap"))
	rec.Add("tsplit_planner_decisions_total", int64(counts.Recompute), obs.L("kind", "recompute"))
	rec.Add("tsplit_planner_decisions_total", int64(counts.SplitOps), obs.L("kind", "split"))
	rec.Add("tsplit_planner_planned_bytes_total", counts.SwapBytes, obs.L("kind", "swap"))
	rec.Add("tsplit_planner_planned_bytes_total", counts.RecomputeBytes, obs.L("kind", "recompute"))
	rec.Set("tsplit_planner_predicted_peak_bytes", float64(finalPeak))
	rec.Set("tsplit_planner_predicted_extra_seconds", pl.extraTime)
	rec.Set("tsplit_planner_mean_pcie_occupancy", pl.occ.Mean())
	rec.Observe("tsplit_planner_plan_seconds", pl.Opts.Clock().Sub(pl.statStart).Seconds())
}

// applyCandidate commits the winning decision to the plan and returns
// the tensors/ops whose plan entries changed. For a split it first
// re-points c.split.MicroIns at a private copy: scoring buffers (and
// the candidate index's pooled per-position config cache) own the
// original backing array and will reuse it.
func (pl *Planner) applyCandidate(c *candidate) planDelta {
	if c.isSplit {
		return pl.applySplit(c)
	}
	return pl.applyEvict(c)
}

func (pl *Planner) applyEvict(c *candidate) planDelta {
	t := c.t
	tp := TensorPlan{Tensor: t, Opt: c.opt, EvictAt: c.evictAt, RestoreAt: c.restoreAt, PrefetchAt: c.restoreAt}
	if c.opt == Recompute {
		tp.ChainBytes = c.chainBytes
		pl.addRecompute(t.ID)
	}
	if c.opt == Swap {
		pl.occ.Reserve(c.transfer, c.evictAt+1, c.pos-1)
		start, leftover := pl.occ.ReserveBack(c.transfer, c.pos, c.restoreAt-1)
		if leftover > 0 {
			// The link is saturated: the copy runs just before its
			// deadline (stalling compute for the unhidden part)
			// rather than spreading across the iteration, so the
			// tensor re-occupies memory only near its use.
			start = pl.Prof.WindowStart(c.restoreAt, c.transfer)
			if start < c.pos {
				start = c.pos
			}
		}
		tp.PrefetchAt = start
		pl.swapStallOf[t.ID] = c.stallOut
		pl.swapStallIDs = append(pl.swapStallIDs, int32(t.ID))
	}
	pl.putTensor(t.ID, tp)
	pl.deltaT1[0] = t
	return planDelta{tensors: pl.deltaT1[:1]}
}

// addRecompute records a committed recompute decision in recomputeIDs,
// keeping the list ascending. A tensor is planned at most once per run,
// and a recompute decision never changes its option after.
func (pl *Planner) addRecompute(id int) {
	k, _ := slices.BinarySearch(pl.recomputeIDs, int32(id))
	pl.recomputeIDs = slices.Insert(pl.recomputeIDs, k, int32(id))
}

func (pl *Planner) applySplit(c *candidate) planDelta {
	op := c.split.Op
	if len(c.split.MicroIns) > 0 {
		c.split.MicroIns = append([]*graph.Tensor(nil), c.split.MicroIns...)
	}
	pl.deltaO1[0] = op
	d := planDelta{ops: pl.deltaO1[:1], tensors: pl.deltaTN[:0]}
	if pl.spSet[op.ID] {
		// Replacing the op's split: inputs the new decision no longer
		// micro-restores must not keep a stale MicroRestore (it would
		// break the split-balance invariant and skew the memory curve).
		for _, t := range pl.splits[op.ID].MicroIns {
			kept := false
			for _, nt := range c.split.MicroIns {
				if nt == t {
					kept = true
					break
				}
			}
			if kept {
				continue
			}
			tp := pl.tensor(t.ID)
			tp.MicroRestore = 0
			pl.putTensor(t.ID, tp)
			d.tensors = append(d.tensors, t)
		}
	}
	pl.putSplit(c.split)
	for _, t := range c.split.MicroIns {
		tp := pl.tensor(t.ID)
		tp.MicroRestore = c.split.PNum
		pl.putTensor(t.ID, tp)
		d.tensors = append(d.tensors, t)
	}
	if c.splitNew && c.inOpt != Reside && c.restoreAt >= 0 {
		tp := TensorPlan{Tensor: c.in, Opt: c.inOpt, EvictAt: c.evictAt, RestoreAt: c.restoreAt, PrefetchAt: c.restoreAt}
		if c.inOpt == Recompute {
			pl.addRecompute(c.in.ID)
		}
		if c.inOpt == Swap {
			transfer := pl.Prof.TransferTime(c.in.Bytes())
			start, leftover := pl.occ.ReserveBack(transfer, c.pos, c.restoreAt-1)
			if leftover > 0 {
				start = pl.Prof.WindowStart(c.restoreAt, transfer)
				if start < c.pos {
					start = c.pos
				}
			}
			tp.PrefetchAt = start
		}
		pl.putTensor(c.in.ID, tp)
		d.tensors = append(d.tensors, c.in)
	}
	pl.deltaTN = d.tensors[:0]
	return d
}

// microRestorable reports whether t's restoring consumer could stream
// it back in micro-tensors: the consumer is sample-splittable, shares
// the batch axis, and is t's final use.
func (pl *Planner) microRestorable(t *graph.Tensor, restoreAt int) bool {
	if pl.Opts.DisableSplit || pl.lastOf[t.ID] != restoreAt {
		return false
	}
	op := pl.Sched.Ops[restoreAt]
	_, out := SplitTensors(op, tensor.DimSample)
	return out != nil && t.Shape.Rank() >= 1 && out.Shape.Rank() >= 1 && t.Shape[0] == out.Shape[0]
}

// Shared read-only option sets for splitInOpts.
var (
	inOptsReside      = []MemOpt{Reside}
	inOptsRecompute   = []MemOpt{Recompute, Reside}
	inOptsSwapRecRes  = []MemOpt{Swap, Recompute, Reside}
	splitDimsSearched = []tensor.SplitDim{tensor.DimSample, tensor.DimParam}
)

// carvableSecondInput returns the second activation input of a binary
// operator that can also be carved and freed micro-part by micro-part:
// it must die at the bottleneck, share the batch axis, and be
// unplanned.
func (pl *Planner) carvableSecondInput(op *graph.Op, in, out *graph.Tensor, dim tensor.SplitDim, i int) *graph.Tensor {
	if dim != tensor.DimSample || op.Kind != graph.Add {
		return nil
	}
	for _, t := range op.Inputs {
		if t == in || t.Kind == tensor.Parameter {
			continue
		}
		if t.Shape.Rank() < 1 || out.Shape.Rank() < 1 || t.Shape[0] != out.Shape[0] {
			continue
		}
		if pl.tpSet[t.ID] {
			continue
		}
		if _, restore, _ := pl.evictionWindowAfterFast(t, i); restore == -1 {
			return t
		}
	}
	return nil
}

// splitInOpts returns the feasible micro-tensor memory options for the
// split input: eviction requires that the bottleneck is the input's
// last forward use (later forward consumers would need it back
// immediately) and that it is not already planned.
func (pl *Planner) splitInOpts(in *graph.Tensor, dim tensor.SplitDim, i int) []MemOpt {
	if dim == tensor.DimParam {
		return inOptsReside // the carved operand is the resident weight
	}
	if pl.tpSet[in.ID] {
		return inOptsReside
	}
	for _, c := range in.Consumers {
		if u := pl.opPos[c.ID]; u > i && c.Phase == graph.Forward {
			return inOptsReside // still needed whole in the forward pass
		}
	}
	if _, restore, _ := pl.evictionWindowAfterFast(in, i); restore == -1 {
		// The input dies at this operator (typical for upstream
		// gradients in the backward pass): its micro-tensors can simply
		// be freed as they are consumed, reusing the space for the
		// output micro-tensors at no eviction cost.
		return inOptsRecompute
	}
	if !in.Kind.Evictable() {
		return inOptsReside
	}
	return inOptsSwapRecRes
}

// --- ID-indexed fast equivalents of the candidates.go helpers ---

// evictionWindowFast is evictionWindow answering from usesOf/firstOf.
func (pl *Planner) evictionWindowFast(t *graph.Tensor, i int) (evictAt, restoreAt int, ok bool) {
	first := pl.firstOf[t.ID]
	if first >= i { // not yet produced, or produced at the bottleneck
		return 0, 0, false
	}
	evictAt = first
	if evictAt < 0 {
		evictAt = 0
	}
	restoreAt = -1
	for _, u := range pl.usesOf[t.ID] {
		switch {
		case u == i:
			return 0, 0, false // input of the bottleneck op itself
		case u < i:
			if u > evictAt {
				evictAt = u
			}
		case restoreAt == -1:
			restoreAt = u
		}
	}
	if restoreAt == -1 {
		return 0, 0, false // dead after i anyway; eviction frees nothing new
	}
	return evictAt, restoreAt, true
}

// evictionWindowAfterFast is the split-input specialization: evicted
// at i (its consuming op), restored at its next use.
func (pl *Planner) evictionWindowAfterFast(t *graph.Tensor, i int) (evictAt, restoreAt int, ok bool) {
	for _, u := range pl.usesOf[t.ID] {
		if u > i {
			return i, u, true
		}
	}
	return 0, -1, false
}

// backwardUsesFast counts t's consumers at or after restoreAt — under
// the memory-centric recomputation strategy (paper Sec. V-D) each pays
// the chain cost again.
func (pl *Planner) backwardUsesFast(t *graph.Tensor, restoreAt int) int {
	n := 0
	for _, u := range pl.usesOf[t.ID] {
		if u >= restoreAt {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// chainCostFast sums the profiled forward time of a recompute chain.
func (pl *Planner) chainCostFast(chain []*graph.Op) float64 {
	var s float64
	for _, op := range chain {
		s += pl.Prof.T[pl.opPos[op.ID]]
	}
	return s
}

// earlyOutPass applies the paper's early-swap mechanism: when a
// swapped tensor's swap-out could not be fully hidden, splitting its
// producer lets the transfer start at micro-tensor granularity —
// during the producer's own execution — recovering up to
// (p-1)/p of the producer's time as additional overlap. Tensors are
// visited in ID order so the floating-point time accumulation is
// deterministic.
func (pl *Planner) earlyOutPass() {
	slices.Sort(pl.swapStallIDs)
	for _, id32 := range pl.swapStallIDs {
		id := int(id32)
		stall := pl.swapStallOf[id]
		if stall <= 0 {
			continue
		}
		t := pl.tplans[id].Tensor
		prod := t.Producer
		if prod == nil || pl.spSet[prod.ID] {
			continue
		}
		in, out := SplitTensors(prod, tensor.DimSample)
		if in == nil || out != t {
			continue
		}
		const pnum = 4
		if tensor.MaxSplit(t.Shape, 0) < pnum {
			continue
		}
		_, totalSplit := pl.Prof.Cost.SplitTimes(prod, pnum)
		pi := pl.opPos[prod.ID]
		degrade := totalSplit - pl.Prof.T[pi]
		if degrade < 0 {
			degrade = 0
		}
		gain := totalSplit * float64(pnum-1) / float64(pnum)
		if gain > stall {
			gain = stall
		}
		if gain <= degrade {
			continue
		}
		sp := OpSplit{Op: prod, PNum: pnum, Dim: tensor.DimSample, InOpt: Reside, EarlyOut: true}
		pl.putSplit(sp)
		// Keep the curve coherent: the final peak comes from
		// curve.scan(), which must see the split's footprint change.
		pl.curve.setAdj(pi, opFootprintAdjustment(prod, sp))
		pl.extraTime -= gain - degrade
	}
}
