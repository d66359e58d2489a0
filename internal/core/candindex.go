package core

import (
	"math"
	"slices"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// candIndex is the invalidating candidate index that replaces the
// per-iteration full rescan of the greedy loop (DESIGN.md §7). The
// serial reference re-prices every tensor and every lookahead position
// from scratch at each bottleneck; the index instead caches everything
// about a candidate that is *not* a function of the PCIe occupancy —
// liveness window, recompute chain, split configurations — and
// re-derives a cached piece only when an event invalidates it:
//
//   - the bottleneck index i crossing a use of a tensor changes that
//     tensor's eviction window (event lists, built once per graph);
//   - a committed plan entry for tensor x invalidates x itself
//     (permanently — the planned set only grows within a run), every
//     chain whose derivation queried x's availability (the reverse
//     dependency registry, whose owners are candidate chains, split
//     positions and committed recompute chains), and the split
//     configurations of every position where x is an operator input;
//   - a committed split on op o invalidates position o's configurations.
//
// Split configurations also outlive the run: a position's list is a
// pure function of the plan entries it reads, so the list built while
// all of them were undecided is the one an empty plan builds, and a
// reused planner keeps it for the next run (posSlot.pristine).
//
// What remains per iteration is O(1) per live candidate: the occupancy
// stall terms (answered from the occupancy prefix sums) and the fold.
// The fold runs in exactly the serial task order — tensors by
// ascending ID (== G.Tensors order), then lookahead positions
// ascending, each position folding its configurations in generation
// order — because betterKey's tie window is not associative and any
// other order could crown a different winner. Byte-identical plans
// against the serial reference are pinned by
// TestPlannerSerialParallelEquivalence.
//
// All state is flat arrays indexed by tensor ID or schedule position;
// steady-state operation allocates nothing.

type candState uint8

const (
	// candNever: the tensor kind is not evictable — never a candidate.
	candNever candState = iota
	// candInvalid: no eviction window at the current bottleneck.
	candInvalid
	// candPlanned: has a plan entry; permanently out for this run.
	candPlanned
	// candValid: priceable at the current bottleneck (in the live list).
	candValid
)

// depRef is one edge of the reverse chain-dependency registry: owner's
// cached chain queried this tensor's availability. A ref is alive only
// while the owner's dependency epoch still matches — re-deriving a
// chain bumps the epoch, killing stale refs in place of eager removal.
type depRef struct {
	owner int32
	epoch int32
}

// splitCfg is one cached viable (p_num, dim, inOpt) configuration of a
// split position. baseT accumulates every ΔT term except the
// occupancy-dependent swap stall, in the serial accumulation order, so
// baseT + stall reproduces the serial float64 bit-for-bit (the stall
// is the last term the serial scorer adds).
type splitCfg struct {
	split     OpSplit // MicroIns aliases the position's pooled buffer
	splitNew  bool
	in        *graph.Tensor
	inOpt     MemOpt
	genIdx    int
	deltaM    int64
	baseT     float64
	swapStall bool // add occ.Stall(swapTr, pos+1, restoreAt-1)
	swapTr    float64
	evictAt   int
	restoreAt int
}

// evictHot is the per-tensor slab the fold reads: static pricing
// inputs (transfer, size, genIdx), the current eviction window, and
// the cached chain verdict. 56 bytes — one line per candidate.
type evictHot struct {
	transfer  float64
	chainCost float64
	sizeF     float64 // float64(size), for the ratio division
	size      int64
	evictAt   int32
	restoreAt int32
	bwdUses   int32
	genIdx    int32
	chainOK   bool
	microOK   bool
}

// posState is where one schedule position's configuration list stands
// against the current plan.
type posState uint8

const (
	// posUnbuilt: not derived for the current plan — not yet touched
	// this run, or an op input or the op's split changed. The next touch
	// derives it, or reuses the pristine list if the op and its inputs
	// are undecided.
	posUnbuilt posState = iota
	// posBuilt: the list is current.
	posBuilt
	// posStale: a tensor the list's chain walks queried gained a plan
	// entry. The next touch derives it.
	posStale
)

// posSlot is the cache state of one position's list (posCfgs).
type posSlot struct {
	state posState
	// pristine is 1 + the number of configurations the list's derivation
	// priced when the list is the one an empty plan builds at this
	// position under the option key (0: it is not, or it priced more
	// than 254).
	pristine uint8
}

type candIndex struct {
	pl     *Planner
	nT     int // tensor ID space (len(G.Tensors))
	n      int // schedule length
	active bool
	i      int // bottleneck the window state currently reflects

	// --- per-tensor state ---
	state []candState
	never []bool // kind not evictable (static)
	isFM  []bool // FeatureMap, i.e. recompute-eligible (static)
	// hot packs everything evictKey reads into one cache line per
	// tensor: the fold visits every live candidate every iteration,
	// and scattering these fields across parallel arrays costs a cache
	// miss per array per candidate.
	hot []evictHot
	// chainStale flags a cached chain for refreshCandChains, or a
	// committed recompute chain for refreshChainsDirty; chainBytes is
	// only read when the winner is materialized.
	chainStale []bool
	chainBytes []int64

	// live lists the candValid tensor IDs, ascending — the fold order.
	live []int32

	// Window-change events: evIDs[evOff[p]:evOff[p+1]] are the tensors
	// whose eviction window changes when the bottleneck crosses
	// position p (built once; positions are uses, uses+1, first+1).
	evOff []int32
	evIDs []int32

	// Reverse chain-dependency registry, the one answer to "which
	// chains read tensor x?". Owners are encoded in one epoch space:
	// tensor id for a candidate's eviction chain and, once the tensor is
	// planned (it never is a candidate again that run), for its
	// committed recompute chain (Planner.refreshChainsDirty);
	// nT+position for split configuration chains. chainStale marks the
	// stale owners of both tensor-ID classes.
	depEpoch []int32
	revDep   [][]depRef

	// --- per-position split configuration cache ---
	pos      []posSlot
	posCfgs  [][]splitCfg
	posMicro [][]*graph.Tensor
	// inPosIdx[inPosOff[id]:inPosOff[id+1]] lists the schedule
	// positions whose cached split configurations read tensor id's plan
	// entry through a static role: the carve input of some dim, or a
	// shape-eligible second input of an Add (static). The remaining
	// dynamic dependency — the micro-restore scan at the tensor's
	// RestoreAt — is invalidated from the entry itself in
	// noteTensorPlanChanged, and chain-walk dependencies are tracked
	// exactly through revDep.
	inPosOff []int32
	inPosIdx []int32

	// The key of the pristine lists: the graph generation whose sizes
	// priced them and PNums, the only option buildPos reads. Prof and
	// Dev are fixed per planner.
	keyGen   uint64
	keyPNums []int
	// touchedDecided records that a chain walk of the derivation in
	// flight queried a tensor with a plan entry.
	touchedDecided bool
	// derived counts the configurations this run priced by derivation
	// rather than by reusing a pristine list.
	derived int64
}

func newCandIndex(pl *Planner) *candIndex {
	nT := len(pl.G.Tensors)
	n := len(pl.Sched.Ops)
	ci := &candIndex{
		pl: pl, nT: nT, n: n,
		state:      make([]candState, nT),
		never:      make([]bool, nT),
		isFM:       make([]bool, nT),
		hot:        make([]evictHot, nT),
		chainStale: make([]bool, nT),
		chainBytes: make([]int64, nT),
		depEpoch:   make([]int32, nT+n),
		revDep:     make([][]depRef, nT),
		pos:        make([]posSlot, n),
		posCfgs:    make([][]splitCfg, n),
		posMicro:   make([][]*graph.Tensor, n),
	}
	for _, t := range pl.G.Tensors {
		ci.never[t.ID] = !t.Kind.Evictable()
		ci.isFM[t.ID] = t.Kind == tensor.FeatureMap
		g := pl.firstOf[t.ID]
		if g < 0 {
			g = 0
		}
		ci.hot[t.ID].genIdx = int32(g)
	}
	ci.buildEvents()
	return ci
}

// derive re-reads what the index caches of tensor sizes: each tensor's
// size and transfer time, and the input positions (SplitTensors and
// carvableSecondInput compare batch extents, so which tensor a
// position carves can change with the sizes). The pristine lists
// follow from their key (rebuildAll).
func (ci *candIndex) derive() {
	pl := ci.pl
	for _, t := range pl.G.Tensors {
		h := &ci.hot[t.ID]
		h.size = t.Bytes()
		h.sizeF = float64(h.size)
		h.transfer = pl.Prof.TransferTime(h.size)
	}
	ci.buildInputPositions()
}

// buildEvents assembles the static window-change event lists. A
// tensor's eviction window (evictAt, restoreAt, validity) is a
// function of where the bottleneck i sits relative to its generation
// and its uses, and changes only when i crosses first+1, a use u, or
// u+1 — every other advance leaves the window untouched.
func (ci *candIndex) buildEvents() {
	pl := ci.pl
	counts := make([]int32, ci.n+1)
	addAt := func(p int, f func(p int)) {
		if p >= 1 && p < ci.n {
			f(p)
		}
	}
	count := func(p int) { counts[p]++ }
	for _, t := range pl.G.Tensors {
		if ci.never[t.ID] {
			continue
		}
		addAt(pl.firstOf[t.ID]+1, count)
		for _, u := range pl.usesOf[t.ID] {
			addAt(u, count)
			addAt(u+1, count)
		}
	}
	ci.evOff = make([]int32, ci.n+1)
	var total int32
	for p := 0; p < ci.n; p++ {
		ci.evOff[p] = total
		total += counts[p]
	}
	ci.evOff[ci.n] = total
	ci.evIDs = make([]int32, total)
	cursor := make([]int32, ci.n)
	for p := range cursor {
		cursor[p] = ci.evOff[p]
	}
	for _, t := range pl.G.Tensors {
		if ci.never[t.ID] {
			continue
		}
		put := func(p int) {
			ci.evIDs[cursor[p]] = int32(t.ID)
			cursor[p]++
		}
		addAt(pl.firstOf[t.ID]+1, put)
		for _, u := range pl.usesOf[t.ID] {
			addAt(u, put)
			addAt(u+1, put)
		}
	}
}

// splitDepIDs invokes emit for every tensor whose plan entry position
// p's configuration derivation reads through a static role: the carve
// input of a searched dim (splitInOpts) or a shape-eligible second
// input of an Add (carvableSecondInput). Duplicate emits across dims
// are fine — invalidation is idempotent.
func splitDepIDs(op *graph.Op, emit func(id int)) {
	for _, dim := range splitDimsSearched {
		in, out := SplitTensors(op, dim)
		if in == nil {
			continue
		}
		emit(in.ID)
		if dim == tensor.DimSample && op.Kind == graph.Add {
			for _, t := range op.Inputs {
				if t == in || t.Kind == tensor.Parameter {
					continue
				}
				if t.Shape.Rank() < 1 || out.Shape.Rank() < 1 || t.Shape[0] != out.Shape[0] {
					continue
				}
				emit(t.ID)
			}
		}
	}
}

// buildInputPositions assembles the tensor→position CSR used to
// invalidate split caches when a tensor's plan entry changes, in the
// index's existing arrays. Listing only the positions that actually
// read the entry (splitDepIDs) — rather than every consumer — keeps
// commit-time invalidation from rebuilding configuration lists whose
// pricing cannot have moved.
func (ci *candIndex) buildInputPositions() {
	pl := ci.pl
	if ci.inPosOff == nil {
		ci.inPosOff = make([]int32, ci.nT+1)
	}
	off := ci.inPosOff
	clear(off)
	for _, op := range pl.Sched.Ops {
		splitDepIDs(op, func(id int) { off[id+1]++ })
	}
	for id := 0; id < ci.nT; id++ {
		off[id+1] += off[id]
	}
	if total := int(off[ci.nT]); cap(ci.inPosIdx) < total {
		ci.inPosIdx = make([]int32, total)
	} else {
		ci.inPosIdx = ci.inPosIdx[:total]
	}
	// Fill with off[id] as tensor id's cursor, which leaves it at the
	// start of id+1's row; shifting by one restores the offsets.
	for p, op := range pl.Sched.Ops {
		splitDepIDs(op, func(id int) {
			ci.inPosIdx[off[id]] = int32(p)
			off[id]++
		})
	}
	copy(off[1:], off[:ci.nT])
	off[0] = 0
}

// deactivate puts the index to sleep between runs; the next ensure()
// rebuilds it against the then-current plan.
func (ci *candIndex) deactivate() {
	ci.active = false
	ci.derived = 0
}

// ensure brings the window state to bottleneck i: a full rebuild on
// first use, otherwise only the events between the previous bottleneck
// and i (in either direction — commits can move the bottleneck
// backwards when they grow memory at an earlier position).
func (ci *candIndex) ensure(i int) {
	if !ci.active {
		sp := ci.pl.runSpan.StartSpan("planner.index.build")
		ci.rebuildAll(i)
		sp.End()
		return
	}
	if i == ci.i {
		return
	}
	lo, hi := ci.i, i
	if hi < lo {
		lo, hi = hi, lo
	}
	ci.i = i
	for p := lo + 1; p <= hi; p++ {
		for _, id := range ci.evIDs[ci.evOff[p]:ci.evOff[p+1]] {
			ci.reeval(int(id))
		}
	}
}

// rebuildAll evaluates every tensor's window at bottleneck i from
// scratch and marks every cached split configuration list unbuilt,
// keeping the pristine ones for buildPos to reuse. Runs once per
// Plan(), at the first bottleneck, before any commit: the plan is
// empty here.
func (ci *candIndex) rebuildAll(i int) {
	pl := ci.pl
	ci.i = i
	ci.live = ci.live[:0]
	for id := range ci.state {
		if ci.never[id] {
			ci.state[id] = candNever
		} else {
			ci.state[id] = candInvalid
		}
	}
	for id := range ci.state {
		if ci.state[id] != candInvalid {
			continue
		}
		evictAt, restoreAt, ok := pl.evictionWindowFast(pl.G.Tensors[id], i)
		if !ok {
			continue
		}
		ci.setWindow(id, evictAt, restoreAt)
		ci.state[id] = candValid
		ci.live = append(ci.live, int32(id)) // ID order: fold order
	}
	if ci.keyGen != pl.graphGen || !slices.Equal(ci.keyPNums, pl.Opts.PNums) {
		for p := range ci.pos {
			ci.pos[p].pristine = 0
		}
		ci.keyGen = pl.graphGen
		ci.keyPNums = append(ci.keyPNums[:0], pl.Opts.PNums...)
	}
	for p := range ci.pos {
		ci.pos[p].state = posUnbuilt
	}
	ci.active = true
}

// setWindow caches a (re)validated window and everything derived from
// restoreAt; the chain verdict is dropped and marked stale for
// refreshCandChains, which leaves it dropped under DisableRecompute
// (a pooled planner's last run may have walked the chain).
func (ci *candIndex) setWindow(id, evictAt, restoreAt int) {
	pl := ci.pl
	t := pl.G.Tensors[id]
	h := &ci.hot[id]
	h.evictAt = int32(evictAt)
	h.restoreAt = int32(restoreAt)
	h.bwdUses = int32(pl.backwardUsesFast(t, restoreAt))
	h.microOK = pl.microRestorable(t, restoreAt)
	h.chainOK = false
	ci.chainStale[id] = true
}

// reeval re-derives one tensor's window after an event crossed it.
func (ci *candIndex) reeval(id int) {
	st := ci.state[id]
	if st == candNever || st == candPlanned {
		return
	}
	pl := ci.pl
	evictAt, restoreAt, ok := pl.evictionWindowFast(pl.G.Tensors[id], ci.i)
	if !ok {
		if st == candValid {
			ci.liveRemove(int32(id))
			ci.state[id] = candInvalid
		}
		return
	}
	if st == candValid && int(ci.hot[id].restoreAt) == restoreAt {
		// Only the past-side boundary moved: the chain, backward-use
		// count, and micro-restorability all key off restoreAt.
		ci.hot[id].evictAt = int32(evictAt)
		return
	}
	ci.setWindow(id, evictAt, restoreAt)
	if st != candValid {
		ci.state[id] = candValid
		ci.liveInsert(int32(id))
	}
}

func (ci *candIndex) liveInsert(id int32) {
	lo, hi := 0, len(ci.live)
	for lo < hi {
		mid := (lo + hi) / 2
		if ci.live[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ci.live = append(ci.live, 0)
	copy(ci.live[lo+1:], ci.live[lo:])
	ci.live[lo] = id
}

func (ci *candIndex) liveRemove(id int32) {
	lo, hi := 0, len(ci.live)
	for lo < hi {
		mid := (lo + hi) / 2
		if ci.live[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ci.live) && ci.live[lo] == id {
		ci.live = append(ci.live[:lo], ci.live[lo+1:]...)
	}
}

// noteTensorPlanChanged handles a committed plan entry for tensor id:
// the tensor leaves the candidate pool for good, chains that queried
// its availability go stale, and positions consuming it rebuild their
// split configurations.
func (ci *candIndex) noteTensorPlanChanged(id int) {
	if id >= ci.nT {
		return
	}
	if ci.state[id] == candValid {
		ci.liveRemove(int32(id))
	}
	if ci.state[id] != candNever {
		ci.state[id] = candPlanned
	}
	refs := ci.revDep[id]
	w := 0
	for _, ref := range refs {
		if ci.depEpoch[ref.owner] != ref.epoch {
			continue // stale ref from a superseded derivation
		}
		refs[w] = ref
		w++
		if int(ref.owner) < ci.nT {
			ci.chainStale[ref.owner] = true
		} else {
			ci.pos[int(ref.owner)-ci.nT].state = posStale
		}
	}
	ci.revDep[id] = refs[:w]
	for k := ci.inPosOff[id]; k < ci.inPosOff[id+1]; k++ {
		ci.pos[ci.inPosIdx[k]].state = posUnbuilt
	}
	// The micro-restore scan at the entry's restore position reads it
	// dynamically (buildPos requires RestoreAt == p); the static roles
	// in the CSR cover every other read.
	pl := ci.pl
	if pl.tpSet[id] {
		if r := pl.tplans[id].RestoreAt; r >= 0 && r < ci.n {
			ci.pos[r].state = posUnbuilt
		}
	}
}

// noteSplitChanged drops the configuration cache of a position whose
// op just gained or upgraded a split decision.
func (ci *candIndex) noteSplitChanged(pos int) {
	ci.pos[pos].state = posUnbuilt
}

// registerDeps records the dependency set of a fresh derivation under
// the owner's current epoch. touched may contain duplicates; the
// consecutive-duplicate skip catches most, and survivors only cost a
// little extra sweep work. A full ref list is compacted (dead epochs
// dropped) before growing, bounding growth across pooled runs.
func (ci *candIndex) registerDeps(owner int32, touched []int32) {
	ep := ci.depEpoch[owner]
	for _, dep := range touched {
		refs := ci.revDep[dep]
		if k := len(refs); k > 0 && refs[k-1].owner == owner && refs[k-1].epoch == ep {
			continue
		}
		if len(refs) == cap(refs) {
			w := 0
			for _, r := range refs {
				if ci.depEpoch[r.owner] == r.epoch {
					refs[w] = r
					w++
				}
			}
			refs = refs[:w]
		}
		//lint:allow scratchreuse refs recycles the compacted CSR row above; growth amortizes into the pooled backing array
		ci.revDep[dep] = append(refs, depRef{owner, ep})
	}
}

// refreshCandChains re-walks the stale cached chains of live
// candidates. Chains whose dependency set is untouched since the last
// walk would re-derive identically (the walk is a pure function of the
// plan state it queries), so skipping them cannot diverge from the
// serial rescan, which re-walks every candidate every iteration.
func (ci *candIndex) refreshCandChains() {
	pl := ci.pl
	if pl.Opts.DisableRecompute {
		return
	}
	for _, id32 := range ci.live {
		id := int(id32)
		if !ci.isFM[id] || !ci.chainStale[id] {
			continue
		}
		ci.chainStale[id] = false
		ci.depEpoch[id]++
		pl.statRescored++
		pl.touchScratch = pl.touchScratch[:0]
		t := pl.G.Tensors[id]
		h := &ci.hot[id]
		chain, err := walkChain(pl.walker, t, availQuery{pl, int(h.restoreAt)}, maxRecomputeChain, &pl.touchScratch)
		ci.registerDeps(int32(id), pl.touchScratch)
		if err != nil {
			h.chainOK = false
			continue
		}
		h.chainOK = true
		h.chainCost = pl.chainCostFast(chain)
		ci.chainBytes[id] = chainTransientBytes(chain, t)
	}
}

// candKey is the comparator-relevant projection of a candidate —
// betterKey reads only ratio, ΔM (PreferLargest) and genIdx, so the
// fold can decide the winner on 24-byte keys and materialize the full
// candidate exactly once per iteration, instead of copying a
// pointer-bearing ~200-byte struct (and paying its GC write barriers)
// per scored candidate.
type candKey struct {
	ratio  float64
	deltaM int64
	genIdx int
}

// betterKey implements the greedy preference: smaller ΔT/ΔM wins, and
// on near-ties the earlier-generated tensor wins (the paper's key
// observation: swapping an earlier-generated tensor starts its
// transfer sooner and holds the reduction longer). The ablation knobs
// switch to largest-ΔM-first or disable the tie-break.
//
// The relative tie window makes betterKey non-associative, so any
// reduction over candidates must fold in the serial scan order.
func (pl *Planner) betterKey(a, b candKey) bool {
	if pl.Opts.PreferLargest {
		if a.deltaM != b.deltaM {
			return a.deltaM > b.deltaM
		}
		return a.genIdx < b.genIdx
	}
	// Ratios are seconds-per-byte (~1e-12 for interesting candidates),
	// so the tie window must be relative, not absolute.
	const tieAbs = 1e-16
	lo, hi := a.ratio, b.ratio
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi-lo > tieAbs && lo < 0.99*hi {
		return a.ratio < b.ratio
	}
	if pl.Opts.DisableGenTieBreak {
		return a.ratio < b.ratio
	}
	return a.genIdx < b.genIdx
}

// evictKey prices one live tensor down to its comparator key — the
// same ΔT arithmetic as priceEvict, without assembling the candidate.
// prefI is FreePrefixAt(i-1), hoisted by the caller: the two stall
// windows [evictAt+1, i-1] and [i, restoreAt-1] share the bottleneck
// boundary, so each candidate needs only its own two prefix loads.
// (Both windows are non-degenerate by construction — evictAt < i ≤
// restoreAt < n — and a one-slot-empty window yields an exact 0.0
// difference, so the Stall clamps are not needed here.)
func (ci *candIndex) evictKey(id, i int, prefI float64) candKey {
	pl := ci.pl
	h := &ci.hot[id]
	transfer := h.transfer
	swapT := 0.0
	if rest := transfer - (prefI - pl.occ.FreePrefixAt(int(h.evictAt))); rest > 0 {
		swapT = rest
	}
	if rest := transfer - (pl.occ.FreePrefixAt(int(h.restoreAt)-1) - prefI); rest > 0 {
		swapT += rest
	}
	recompT := math.Inf(1)
	if h.chainOK {
		recompT = h.chainCost * float64(h.bwdUses)
	}
	dT := swapT
	if recompT < swapT {
		dT = recompT
		if swapT <= 4*recompT+1e-6 && h.microOK {
			dT = swapT
		}
	}
	return candKey{ratio: dT / h.sizeF, deltaM: h.size, genIdx: int(h.genIdx)}
}

// splitKey prices one cached configuration down to its comparator key.
func (ci *candIndex) splitKey(cfg *splitCfg, p int) candKey {
	dT := cfg.baseT
	if cfg.swapStall {
		dT += ci.pl.occ.Stall(cfg.swapTr, p+1, cfg.restoreAt-1)
	}
	return candKey{ratio: dT / float64(cfg.deltaM), deltaM: cfg.deltaM, genIdx: cfg.genIdx}
}

// best folds the whole candidate pool in the serial task order and
// returns the winner plus the viable-candidate count. Eviction pricing
// is O(1) per live tensor (occupancy stalls from prefix sums plus the
// cached chain); split positions re-fold their cached configurations,
// rebuilding only the invalidated ones. The fold compares keys only;
// the winning candidate is assembled once at the end (the occupancy is
// not modified during the fold, so re-pricing the winner reproduces
// the keyed ΔT bit-for-bit).
func (ci *candIndex) best(i int) (*candidate, int) {
	pl := ci.pl
	viable := 0
	var bk candKey
	have := false
	winEvict := -1
	winPos, winCfg := -1, -1
	pl.occ.Materialize()
	prefI := pl.occ.FreePrefixAt(i - 1)
	for _, id32 := range ci.live {
		id := int(id32)
		k := ci.evictKey(id, i, prefI)
		viable++
		if !have || pl.betterKey(k, bk) {
			have, bk = true, k
			winEvict, winPos = id, -1
		}
	}
	if !pl.Opts.DisableSplit {
		last := i + pl.Opts.SplitLookahead
		if last > ci.n-1 {
			last = ci.n - 1
		}
		for p := i; p <= last; p++ {
			if ci.pos[p].state != posBuilt {
				ci.buildPos(p)
			}
			cfgs := ci.posCfgs[p]
			pHave := false
			var pk candKey
			pCfg := -1
			for c := range cfgs {
				k := ci.splitKey(&cfgs[c], p)
				if !pHave || pl.betterKey(k, pk) {
					pHave, pk, pCfg = true, k, c
				}
			}
			if pHave {
				viable++
				if !have || pl.betterKey(pk, bk) {
					have, bk = true, pk
					winEvict, winPos, winCfg = -1, p, pCfg
				}
			}
		}
	}
	if !have {
		return nil, viable
	}
	if winEvict >= 0 {
		ci.priceEvict(winEvict, i, &pl.foldBest)
	} else {
		ci.priceSplit(&ci.posCfgs[winPos][winCfg], winPos, &pl.foldBest)
	}
	return &pl.foldBest, viable
}

// priceEvict prices one live tensor at bottleneck i — the cached
// counterpart of scoreEvictInto, identical arithmetic in identical
// order.
func (ci *candIndex) priceEvict(id, i int, c *candidate) {
	pl := ci.pl
	h := &ci.hot[id]
	evictAt, restoreAt := int(h.evictAt), int(h.restoreAt)
	transfer := h.transfer
	stallOut := pl.occ.Stall(transfer, evictAt+1, i-1)
	stallIn := pl.occ.Stall(transfer, i, restoreAt-1)
	swapT := stallOut + stallIn

	recompT := math.Inf(1)
	var chainBytes int64
	if h.chainOK {
		recompT = h.chainCost * float64(h.bwdUses)
		chainBytes = ci.chainBytes[id]
	}
	opt, dT := Swap, swapT
	if recompT < swapT {
		opt, dT = Recompute, recompT
	}
	if opt == Recompute && swapT <= 4*recompT+1e-6 && h.microOK {
		opt, dT = Swap, swapT
	}
	*c = candidate{
		valid:      true,
		ratio:      dT / h.sizeF,
		deltaT:     dT,
		deltaM:     h.size,
		genIdx:     int(h.genIdx),
		pos:        i,
		evictAt:    evictAt,
		restoreAt:  restoreAt,
		t:          pl.G.Tensors[id],
		opt:        opt,
		transfer:   transfer,
		stallOut:   stallOut,
		chainBytes: chainBytes,
	}
}

// priceSplit finalizes a cached configuration: the occupancy stall of
// a swap inOpt is the only term that changes between iterations, and
// the serial scorer adds it last, so baseT + stall is bit-identical.
func (ci *candIndex) priceSplit(cfg *splitCfg, p int, c *candidate) {
	deltaT := cfg.baseT
	if cfg.swapStall {
		deltaT += ci.pl.occ.Stall(cfg.swapTr, p+1, cfg.restoreAt-1)
	}
	*c = candidate{
		valid:     true,
		isSplit:   true,
		ratio:     deltaT / float64(cfg.deltaM),
		deltaT:    deltaT,
		deltaM:    cfg.deltaM,
		genIdx:    cfg.genIdx,
		pos:       p,
		evictAt:   cfg.evictAt,
		restoreAt: cfg.restoreAt,
		split:     cfg.split,
		splitNew:  cfg.splitNew,
		in:        cfg.in,
		inOpt:     cfg.inOpt,
	}
}

// buildPos rebuilds the viable configuration list of one position —
// the cached counterpart of scoreSplitInto, generating configurations
// in the exact serial order (dims, then p_nums, then inOpts). The
// config and micro-input slices are pooled per position.
//
// The list reads the plan entries of the op's inputs, of the tensors
// its chain walks query, and the op's own split. While all of them are
// undecided the derivation is the empty plan's, so a pristine list is
// reused as is. Its chain dependencies are still registered under the
// position's epoch (reuse does not bump it), and any of them gaining
// an entry since the run began has marked the slot stale.
func (ci *candIndex) buildPos(p int) {
	pl := ci.pl
	op := pl.Sched.Ops[p]
	s := &ci.pos[p]
	cur, has := pl.splits[op.ID], pl.spSet[op.ID]
	undecided := !has && pl.inputsUndecided(op)
	if undecided && s.pristine > 0 && s.state != posStale {
		pl.statRescored += int64(s.pristine - 1)
		s.state = posBuilt
		return
	}
	ci.depEpoch[ci.nT+p]++ // retire chain deps of the old configs
	ci.touchedDecided = false
	priced := pl.statRescored
	cfgs := ci.posCfgs[p][:0]
	micro := ci.posMicro[p][:0]
	// The current-footprint terms are per-position constants across the
	// whole configuration product; the serial scorer re-derives them per
	// configuration to identical values.
	curAdj := op.Workspace
	curBaseT := pl.Prof.T[p]
	if has {
		curAdj = splitAdjustment(op, cur)
		_, curBaseT = pl.Prof.Cost.SplitTimes(op, cur.PNum)
	}
	var curOpt [1]MemOpt
	for _, dim := range splitDimsSearched {
		if has && dim != cur.Dim {
			continue
		}
		in, out := SplitTensors(op, dim)
		if in == nil {
			continue
		}
		axis := 0
		if dim == tensor.DimParam {
			axis = 0
			if op.Kind != graph.Conv2D && in.Shape.Rank() >= 2 {
				axis = in.Shape.Rank() - 1
			}
		}
		maxP := tensor.MaxSplit(in.Shape, axis)
		inOpts := pl.splitInOpts(in, dim, p)
		if has {
			curOpt[0] = cur.InOpt
			inOpts = curOpt[:]
		}
		// Micro-restorable swapped inputs depend on (op, dim, plan)
		// only — hoisted out of the p_num × inOpt product.
		microStart := len(micro)
		var microB int64
		if dim == tensor.DimSample {
			for _, t := range op.Inputs {
				if !pl.tpSet[t.ID] {
					continue
				}
				tp := &pl.tplans[t.ID]
				if tp.Opt != Swap || tp.MicroRestore > 1 || tp.RestoreAt != p {
					continue
				}
				if t.Shape.Rank() < 1 || t.Shape[0] != op.Outputs[0].Shape[0] {
					continue
				}
				if pl.lastOf[t.ID] != p {
					continue
				}
				micro = append(micro, t)
				microB += t.Bytes()
			}
		}
		microIns := micro[microStart:len(micro):len(micro)]
		if len(microIns) == 0 {
			microIns = nil
		}
		for _, pnum := range pl.Opts.PNums {
			if pnum < 2 || pnum > maxP || (has && pnum <= cur.PNum) {
				continue
			}
			for _, inOpt := range inOpts {
				if cfg, ok := ci.buildCfg(op, p, in, out, dim, pnum, inOpt, has, curAdj, curBaseT, microIns, microB); ok {
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	ci.posCfgs[p] = cfgs
	ci.posMicro[p] = micro
	s.state, s.pristine = posBuilt, 0
	if n := pl.statRescored - priced; undecided && !ci.touchedDecided && n < math.MaxUint8 {
		s.pristine = uint8(n + 1)
	}
}

// buildCfg prices the occupancy-independent part of one configuration
// — the cached counterpart of scoreSplitConfigInto, term for term in
// the same order.
func (ci *candIndex) buildCfg(op *graph.Op, p int, in, out *graph.Tensor, dim tensor.SplitDim, pnum int, inOpt MemOpt, has bool, curAdj int64, baseT float64, microIns []*graph.Tensor, microB int64) (splitCfg, bool) {
	pl := ci.pl
	pl.statRescored++
	ci.derived++
	inB, outB := in.Bytes(), out.Bytes()
	in2 := pl.carvableSecondInput(op, in, out, dim, p)

	newSplit := OpSplit{Op: op, PNum: pnum, Dim: dim, InOpt: inOpt, In2: in2, MicroIns: microIns}
	deltaM := curAdj - splitAdjustment(op, newSplit)
	deltaM += microB - microB/int64(pnum)
	if deltaM <= 0 {
		return splitCfg{}, false
	}

	_, totalSplit := pl.Prof.Cost.SplitTimes(op, pnum)
	deltaT := totalSplit - baseT
	if deltaT < 0 {
		deltaT = 0
	}
	if op.EffectiveKind() == graph.BatchNorm {
		deltaT += float64(inB) / pl.Dev.MemBandwidth
	}
	if microB > 0 {
		transfer := pl.Prof.TransferTime(microB)
		hide := totalSplit * float64(pnum-1) / float64(pnum)
		if stall := transfer - hide; stall > 0 {
			deltaT += stall
		}
	}
	if !has {
		deltaT += float64(outB) / pl.Dev.MemBandwidth
		if dim == tensor.DimParam {
			deltaT += float64(inB) / pl.Dev.MemBandwidth
		}
	}

	evictAt, restoreAt := p, -1
	var swapTr float64
	swapStall := false
	switch {
	case has:
		// Upgrade: the input's eviction was priced with the original
		// split decision.
	case inOpt == Swap:
		transfer := pl.Prof.TransferTime(inB)
		_, restoreAt, _ = pl.evictionWindowAfterFast(in, p)
		if restoreAt < 0 {
			return splitCfg{}, false
		}
		hide := totalSplit * float64(pnum-1) / float64(pnum)
		if stall := transfer - hide; stall > 0 {
			deltaT += stall
		}
		swapTr = transfer
		swapStall = true
	case inOpt == Recompute:
		_, restoreAt, _ = pl.evictionWindowAfterFast(in, p)
		if restoreAt >= 0 {
			pl.touchScratch = pl.touchScratch[:0]
			chain, err := walkChain(pl.walker, in, availQuery{pl, restoreAt}, maxRecomputeChain, &pl.touchScratch)
			// The viability verdict depends on the availability answers
			// queried up to the success or abort point: register them
			// either way so any change rebuilds this position.
			ci.registerDeps(int32(ci.nT+p), pl.touchScratch)
			for _, id := range pl.touchScratch {
				if pl.tpSet[id] {
					ci.touchedDecided = true
					break
				}
			}
			if err != nil {
				return splitCfg{}, false
			}
			deltaT += pl.chainCostFast(chain) * float64(pl.backwardUsesFast(in, restoreAt))
		}
	}

	gen := pl.firstOf[in.ID]
	if gen < 0 {
		gen = 0
	}
	return splitCfg{
		split:     newSplit,
		splitNew:  !has,
		in:        in,
		inOpt:     inOpt,
		genIdx:    gen,
		deltaM:    deltaM,
		baseT:     deltaT,
		swapStall: swapStall,
		swapTr:    swapTr,
		evictAt:   evictAt,
		restoreAt: restoreAt,
	}, true
}
