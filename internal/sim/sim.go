// Package sim is TSPLIT's deep-learning runtime (paper Sec. V-D) over
// the simulated device: a discrete-event executor with the same stream
// architecture as the real system — one compute stream plus dedicated
// D2H and H2D copy streams with event-based synchronization — a pooled
// best-fit device allocator, swap-out/swap-in with prefetching,
// memory-centric / speed-centric / LRU recomputation, and split
// operators executed as micro-operator sequences with micro-granular
// eviction and streaming restore.
//
// The simulator consumes a graph, its schedule, and a memory plan
// (from TSPLIT's planner or any baseline planner) and produces the
// measurements the paper's evaluation reports: iteration time,
// throughput, peak memory, PCIe busy time, stall time, swap and
// recompute volumes — or an OOM failure when the plan does not
// actually fit, which is the ground truth behind the × entries of
// Tables IV-VII.
//
// The executor is arena-backed: every piece of per-run state — the
// event heap, the per-tensor residency/refcount/block mirrors, the
// allocator's internals, the split-execution scratch — lives in
// flat, dense-ID-indexed slices that reset() reinitializes in place,
// so a Simulator recycled through a SimPool runs a full iteration with
// near-zero heap allocation and byte-identical results to a fresh one.
// Block offsets live only in the allocator's slots: a compaction moves
// blocks under every copy the executor holds, and nothing is remapped.
package sim

import (
	"fmt"

	"tsplit/internal/core"
	"tsplit/internal/costmodel"
	"tsplit/internal/device"
	"tsplit/internal/faults"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/obs"
)

// RecomputeStrategy selects how regenerated forward subgraphs manage
// their intermediate tensors (paper Sec. V-D "Recomputation
// Implementation").
type RecomputeStrategy int

const (
	// MemoryCentric re-executes the forward dependency chain for every
	// backward consumer and frees all intermediates immediately:
	// O(N²) extra compute, O(1) extra memory. The paper's default.
	MemoryCentric RecomputeStrategy = iota
	// SpeedCentric recomputes each dropped tensor once and keeps it on
	// device until its last use: O(N) compute, O(N) memory.
	SpeedCentric
	// LRURecompute behaves speed-centric while memory lasts and evicts
	// the least-recently-used cached recomputation when the pool runs
	// dry (the paper's hybrid optimization).
	LRURecompute
)

// String names the strategy.
func (r RecomputeStrategy) String() string {
	switch r {
	case MemoryCentric:
		return "memory-centric"
	case SpeedCentric:
		return "speed-centric"
	default:
		return "lru"
	}
}

// Options tunes a simulation run.
type Options struct {
	// Capacity overrides the device memory size (0 = dev.MemBytes).
	Capacity int64
	// Recompute selects the recomputation strategy (default
	// MemoryCentric, the paper's choice).
	Recompute RecomputeStrategy
	// PoolStrategy selects the allocator placement policy.
	PoolStrategy memorypool.Strategy
	// CollectTimeline records a per-op memory/time trace (Fig. 2(a)).
	CollectTimeline bool
	// Obs receives runtime metrics (stream busy time, stall breakdown,
	// swap volumes, pool health). Nil disables all observation at zero
	// cost.
	Obs obs.Recorder
	// Faults injects a deterministic hostile environment (op-time
	// noise, PCIe degradation, transient transfer failures, capacity
	// shrink). Nil disables injection at zero cost.
	Faults *faults.Injector
	// Trace receives a "sim.run" root span with one "sim.op" child per
	// scheduled op. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Flight receives structured runtime events — injected faults,
	// OOMs — on the postmortem ring buffer. Nil disables at zero cost.
	Flight *obs.Flight
}

// FaultStats aggregates the injected-fault activity of one run (zero
// unless Options.Faults is set).
type FaultStats struct {
	// OpNoiseSeconds is compute time added (negative: removed) by
	// op-time misprediction noise.
	OpNoiseSeconds float64
	// BandwidthEvents counts transfers that hit a degraded-PCIe
	// window; BandwidthExtraSeconds is the latency those windows added.
	BandwidthEvents       int
	BandwidthExtraSeconds float64
	// SwapRetries counts transient transfer failures that were
	// retried, SwapRetrySeconds the total retry + backoff latency, and
	// SwapExhausted the transfers that burned the whole retry budget
	// before the link reset let them through.
	SwapRetries      int
	SwapRetrySeconds float64
	SwapExhausted    int
	// CapacityEvents counts co-located-job windows that held pool
	// memory during the run.
	CapacityEvents int
}

// Result is the outcome of simulating one training iteration.
type Result struct {
	// Time is the wall-clock iteration time in seconds (compute stream
	// completion, including stalls).
	Time float64
	// ComputeTime is the busy time of the compute stream.
	ComputeTime float64
	// StallTime is Time minus the no-memory-management compute time —
	// the ΔT the plan actually cost, including recompute work.
	StallTime float64
	// InputStallTime / AllocStallTime / CompactTime break the stall
	// down by cause: compute waiting on input readiness (swap-in or
	// regeneration completing), compute waiting on pool memory
	// (in-flight swap-out frees), and defragmentation copy time. The
	// attribution is per-operator and approximate — overlapping causes
	// are charged to the dominant one — so the three need not sum to
	// StallTime (which also contains recompute work).
	InputStallTime float64
	AllocStallTime float64
	CompactTime    float64
	// D2HBusy and H2DBusy are the copy-stream busy times.
	D2HBusy, H2DBusy float64
	// PCIeUtilization is the mean utilization of the two directions
	// over the iteration.
	PCIeUtilization float64
	// PeakBytes is the maximum pool usage observed.
	PeakBytes int64
	// SwapOutBytes / SwapInBytes are total transfer volumes.
	SwapOutBytes, SwapInBytes int64
	// RecomputedOps counts re-executed forward operators.
	RecomputedOps int
	// Compactions counts pool defragmentation passes and MovedBytes
	// the data they migrated.
	Compactions int
	MovedBytes  int64
	// RecomputeTime is compute time spent on regeneration.
	RecomputeTime float64
	// Faults summarizes injected-fault activity (Options.Faults). Note
	// that PeakBytes includes memory held by injected capacity-shrink
	// events: the pool pressure the plan actually ran under.
	Faults FaultStats
	// Timeline holds (per schedule step) the pool usage after the op
	// issued, when CollectTimeline is set.
	Timeline []TimelinePoint
}

// TimelinePoint is one sample of the execution trace.
type TimelinePoint struct {
	OpIndex int
	Name    string
	Start   float64
	End     float64
	MemUsed int64
	// Stream identifies the lane: "compute" (default), "d2h", "h2d".
	Stream string
	// Bytes is the transfer payload for copy-stream events (0 for
	// compute slices) and Tensor the tensor moved — the Chrome trace
	// derives PCIe bandwidth counters and swap-out→swap-in flow arrows
	// from them.
	Bytes  int64
	Tensor string
	// FragBytes samples external fragmentation (free memory not part of
	// the largest free extent) when the event was recorded.
	FragBytes int64
}

// Throughput converts a result to samples/second for a batch size.
func (r Result) Throughput(batch int) float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(batch) / r.Time
}

// tensorState tracks where a tensor's bytes currently are.
type tensorState int8

const (
	unborn tensorState = iota
	onDevice
	onHost  // swapped out; host copy valid
	dropped // evicted for recompute; must be regenerated
	freed   // dead for the rest of the iteration
)

// ErrOOM wraps allocation failures: the plan does not fit.
var ErrOOM = fmt.Errorf("sim: out of device memory")

// freeEvent is a pending deferred free (a swap-out completing). seq is
// the issue order; it breaks ties between equal completion times, so
// the pop order never depends on the heap's shape.
type freeEvent struct {
	at    float64
	seq   int64
	block memorypool.Block
	t     *graph.Tensor
}

// freeHeap is a concrete binary min-heap of freeEvents ordered by
// (at, seq). A typed heap instead of container/heap: the interface
// methods box every pushed and popped event, and the event loop pays
// that on every deferred free.
type freeHeap []freeEvent

func (h freeHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *freeHeap) push(ev freeEvent) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *freeHeap) pop() freeEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = freeEvent{}
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.before(l, least) {
			least = l
		}
		if r < n && q.before(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// hogEvent is one injected capacity-shrink window and the phantom
// co-located-job block it holds while active.
type hogEvent struct {
	ev   faults.CapacityEvent
	blk  memorypool.Block
	held bool
}

// maxCompactions bounds defragmentation passes per iteration.
const maxCompactions = 64

// carvedInput pairs an evict-as-consumed split input with its in-place
// partition (blocks aliases one of the Simulator's carve buffers).
type carvedInput struct {
	t      *graph.Tensor
	blocks []memorypool.Block
}

// Simulator executes one training iteration of a planned graph.
//
// All internal state is indexed by the dense tensor and op IDs the
// graph package assigns at construction, and reset() reinitializes
// every structure in place, so one Simulator can be reused across runs
// (see SimPool) without per-run allocation and with results
// byte-identical to a freshly constructed one.
type Simulator struct {
	G     *graph.Graph
	Sched *graph.Schedule
	Lv    *graph.Liveness
	Plan  *core.Plan
	Dev   device.Device
	Cost  *costmodel.Model
	Opts  Options

	pool *memorypool.Pool

	// Per-tensor mirrors indexed by graph.Tensor.ID.
	state   []tensorState
	block   []memorypool.Block // Size == 0: no device block (real blocks are >= Alignment)
	readyAt []float64
	// remaining schedule uses per tensor.
	remaining []int32
	// wasRecomputed marks tensors whose device copy came from a
	// regeneration (for memory-centric re-dropping).
	wasRecomputed []bool
	// earlyCopied marks tensors whose bytes already streamed to the
	// host during their (EarlyOut-split) producer.
	earlyCopied []bool
	// pinned marks tensors the currently executing operator touches;
	// the allocator's pressure valve may not evict them. pinnedIDs is
	// the set-bit list so clearing is O(pins), not O(tensors). Only
	// LRURecompute runs read or set them.
	pinned    []bool
	pinnedIDs []int32
	// residentB caches resident() per tensor for the current plan.
	residentB []bool

	// Dense plan mirrors: tplans[id]/planned[id] mirror Plan.Tensors,
	// and splitIdx[opID] indexes Plan.Splits (-1: unsplit).
	tplans   []core.TensorPlan
	planned  []bool
	splitIdx []int32
	// schedIdx maps op ID -> schedule index.
	schedIdx []int32

	// opTime caches Cost.OpTime per schedule index. The cost model is
	// pure in (device, op), so the cache survives pool recycling as
	// long as the workload — the graph's pointer and generation — and
	// the device hold.
	opTime    []float64
	opTimeG   *graph.Graph
	opTimeGen uint64
	opTimeDev device.Device

	// lruCache orders speed-centric/LRU cached regenerations; lruHead
	// is the eviction cursor (popping advances it instead of reslicing
	// away capacity).
	lruCache []*graph.Tensor
	lruHead  int

	// stream clocks.
	tc, td, th float64

	// prefetch agenda in CSR form: tensors to start swapping in before
	// schedule index i are prefTensors[prefStart[i]:prefStart[i+1]].
	prefStart   []int32
	prefTensors []*graph.Tensor
	prefCur     []int32

	// pending holds deferred frees (swap-outs still in flight).
	pending freeHeap
	pendSeq int64

	// Split-execution scratch, reused across split ops.
	carveBuf     [2][]memorypool.Block
	carvedIns    []carvedInput
	restoreSlots []memorypool.Block
	outBlocks    []memorypool.Block
	microBlocks  []memorypool.Block
	microOn      []bool

	// Recompute-chain scratch: core's chain walker plus free lists of
	// chain/fresh buffers (free lists, not single buffers, because
	// regeneration re-enters through ensureInput).
	walker    core.ChainWalker
	chainFree [][]*graph.Op
	freshFree [][]*graph.Tensor

	// compactions counts defragmentation passes this run (bounded to
	// stop pathological thrash).
	compactions int

	// Fault-injection state (nil/empty without Options.Faults): the
	// injector, the schedule position the executor is at, per-op
	// compute-noise factors, per-op transfer-time multipliers, and the
	// capacity-shrink windows with their held pool blocks.
	inj   *faults.Injector
	curOp int
	noise []float64
	bwMul []float64
	hogs  []hogEvent

	res Result
}

// unpin releases the pins of the operator that just completed.
func (s *Simulator) unpin() {
	for _, id := range s.pinnedIDs {
		s.pinned[id] = false
	}
	s.pinnedIDs = s.pinnedIDs[:0]
}

// pin protects the tensors an operator touches from pressure eviction
// while it executes. Only the LRU strategy evicts under pressure, so
// only its runs pin.
func (s *Simulator) pin(op *graph.Op) {
	if s.Opts.Recompute != LRURecompute {
		return
	}
	for _, t := range op.Inputs {
		if !s.pinned[t.ID] {
			s.pinned[t.ID] = true
			s.pinnedIDs = append(s.pinnedIDs, int32(t.ID))
		}
	}
	for _, t := range op.Outputs {
		if !s.pinned[t.ID] {
			s.pinned[t.ID] = true
			s.pinnedIDs = append(s.pinnedIDs, int32(t.ID))
		}
	}
}

// pushPending schedules blk to be freed when t's swap-out completes at
// time at. Events with equal completion times pop in issue order.
func (s *Simulator) pushPending(at float64, blk memorypool.Block, t *graph.Tensor) {
	s.pendSeq++
	s.pending.push(freeEvent{at: at, seq: s.pendSeq, block: blk, t: t})
}

// New builds a simulator for one (graph, schedule, plan, device).
func New(g *graph.Graph, sched *graph.Schedule, lv *graph.Liveness, plan *core.Plan, dev device.Device, opts Options) *Simulator {
	if opts.Capacity == 0 {
		opts.Capacity = dev.MemBytes
	}
	return &Simulator{
		G: g, Sched: sched, Lv: lv, Plan: plan, Dev: dev,
		Cost: costmodel.New(dev), Opts: opts,
	}
}

// transfer returns PCIe seconds for a byte count.
func (s *Simulator) transfer(b int64) float64 { return float64(b) / s.Dev.PCIeBandwidth }

// grow returns a zeroed slice of length n, reusing buf's storage when
// it is large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *Simulator) reset() {
	nT := len(s.G.Tensors)
	nOps := len(s.G.Ops)
	nSched := len(s.Sched.Ops)

	if s.pool == nil {
		s.pool = memorypool.New(s.Opts.Capacity, s.Opts.PoolStrategy)
	} else {
		s.pool.ResetTo(s.Opts.Capacity, s.Opts.PoolStrategy)
	}
	s.state = grow(s.state, nT)
	s.block = grow(s.block, nT)
	s.readyAt = grow(s.readyAt, nT)
	s.remaining = grow(s.remaining, nT)
	s.wasRecomputed = grow(s.wasRecomputed, nT)
	s.earlyCopied = grow(s.earlyCopied, nT)
	s.pinned = grow(s.pinned, nT)
	s.pinnedIDs = s.pinnedIDs[:0]
	s.residentB = grow(s.residentB, nT)
	s.lruCache = s.lruCache[:0]
	s.lruHead = 0
	s.tc, s.td, s.th = 0, 0, 0
	s.compactions = 0
	s.pending = s.pending[:0]
	s.pendSeq = 0
	s.res = Result{}
	s.inj = s.Opts.Faults
	s.curOp = 0
	s.noise, s.bwMul = nil, nil
	s.hogs = s.hogs[:0]
	if s.inj != nil {
		s.noise = make([]float64, nSched)
		s.bwMul = make([]float64, nSched)
		for i := 0; i < nSched; i++ {
			s.noise[i] = s.inj.OpTimeFactor(i)
			s.bwMul[i] = s.inj.TransferFactor(i)
		}
		for _, ev := range s.inj.CapacityEvents(nSched, s.Opts.Capacity) {
			s.hogs = append(s.hogs, hogEvent{ev: ev})
		}
	}

	// Dense plan mirrors.
	s.tplans = grow(s.tplans, nT)
	s.planned = grow(s.planned, nT)
	for _, tp := range s.Plan.Tensors {
		s.tplans[tp.Tensor.ID] = tp
		s.planned[tp.Tensor.ID] = true
	}
	s.splitIdx = growFill(s.splitIdx, nOps, -1)
	for k, spl := range s.Plan.Splits {
		s.splitIdx[spl.Op.ID] = int32(k)
	}
	s.schedIdx = grow(s.schedIdx, nOps)
	for i, op := range s.Sched.Ops {
		s.schedIdx[op.ID] = int32(i)
	}
	for _, t := range s.G.Tensors {
		s.remaining[t.ID] = int32(len(t.Consumers))
		if t.Producer == nil {
			s.residentB[t.ID] = s.planResident(t)
		}
	}

	// Prefetch agenda in CSR form, filled in tensor-ID order (the
	// plan's) per schedule point.
	s.prefStart = grow(s.prefStart, nSched+1)
	for _, tp := range s.Plan.Tensors {
		if at, ok := prefetchAt(tp); ok {
			s.prefStart[at+1]++
		}
	}
	for i := 1; i <= nSched; i++ {
		s.prefStart[i] += s.prefStart[i-1]
	}
	s.prefTensors = grow(s.prefTensors, int(s.prefStart[nSched]))
	s.prefCur = grow(s.prefCur, nSched)
	copy(s.prefCur, s.prefStart[:nSched])
	for _, tp := range s.Plan.Tensors {
		if at, ok := prefetchAt(tp); ok {
			s.prefTensors[s.prefCur[at]] = tp.Tensor
			s.prefCur[at]++
		}
	}

	if s.opTimeG != s.G || s.opTimeGen != s.G.Generation() || s.opTimeDev != s.Cost.Dev {
		s.opTime = grow(s.opTime, nSched)
		for i, op := range s.Sched.Ops {
			s.opTime[i] = s.Cost.OpTime(op)
		}
		s.opTimeG, s.opTimeGen, s.opTimeDev = s.G, s.G.Generation(), s.Cost.Dev
	}
}

// growFill returns a slice of length n with every element set to v,
// reusing buf's storage when possible.
func growFill(buf []int32, n int, v int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// prefetchAt returns the schedule index at which tp's swap-in
// prefetch is issued, if the plan swaps its tensor back in whole.
func prefetchAt(tp core.TensorPlan) (int, bool) {
	if tp.Opt != core.Swap || tp.MicroRestore > 1 || tp.RestoreAt < 0 {
		return 0, false
	}
	at := tp.PrefetchAt
	if at < 0 || at > tp.RestoreAt {
		at = tp.RestoreAt
	}
	return at, true
}
