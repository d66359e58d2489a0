// Package core implements TSPLIT's contribution: the joint planning of
// tensor splitting with out-of-core memory management (swap and
// recompute). It contains the sTensor configuration model (paper
// Sec. V-A), the analytic cost models for each strategy (Sec. IV-B,
// Eqs. 2-6), the model-guided greedy planner (Sec. IV-C, Algorithm 2),
// the plan-aware memory simulation it iterates over, and the
// augmented-graph rewrite that materializes a plan as an executable
// dataflow graph with split / merge / swap / recompute operators and
// control-flow edges (Sec. V-A, Fig. 10).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

// MemOpt is the per-tensor memory option of an sTensor configuration
// (paper Fig. 9: "memory option (reside/swap/recompute)").
type MemOpt int

const (
	// Reside keeps the tensor on device for its whole lifetime.
	Reside MemOpt = iota
	// Swap evicts the tensor to host memory after its last forward use
	// and prefetches it back before its first backward use.
	Swap
	// Recompute drops the tensor after its last forward use and
	// re-executes its producing subgraph in the backward pass.
	Recompute
)

// String names the option as in the paper.
func (m MemOpt) String() string {
	switch m {
	case Reside:
		return "reside"
	case Swap:
		return "swap"
	case Recompute:
		return "recompute"
	default:
		return fmt.Sprintf("memopt(%d)", int(m))
	}
}

// TensorPlan is the planner's decision for one tensor: the sTensor
// config of paper Fig. 9 plus the prefetch position the occupancy
// simulation chose for swap-in.
type TensorPlan struct {
	Tensor *graph.Tensor
	Opt    MemOpt
	// EvictAt is the schedule index after which the tensor leaves the
	// device (its last forward use).
	EvictAt int
	// RestoreAt is the schedule index of the first consumer that needs
	// the tensor back (first backward use).
	RestoreAt int
	// PrefetchAt is the schedule index at which the swap-in should be
	// issued so the transfer hides under computation (swap only).
	PrefetchAt int
	// MicroRestore, when non-zero, restores the tensor in that many
	// micro-tensors streamed one at a time into its (split) consumer,
	// so only size/MicroRestore bytes re-occupy the device — the
	// micro-granular swap-in enabled by the split of the consuming
	// operator (paper Sec. III-A).
	MicroRestore int
	// ChainBytes estimates the transient device memory a regeneration
	// of this tensor needs for chain intermediates (recompute only);
	// the memory simulation charges it at every backward consumer.
	ChainBytes int64
}

// OpSplit is the planner's split decision for one operator: the
// (p_num, dim) of the sTensor config applied to the operator's
// activation input and output, plus the memory option applied
// uniformly to the input micro-tensors ("we make consistent memory
// options for the micro-tensors inside a tensor", Sec. IV-C).
type OpSplit struct {
	Op   *graph.Op
	PNum int
	Dim  tensor.SplitDim
	// InOpt is what happens to each input micro-tensor right after the
	// micro-operator consumes it: Swap streams it to host, Recompute
	// drops it (it will be re-produced for the backward pass), Reside
	// keeps it (split then only pipelines the output).
	InOpt MemOpt
	// EarlyOut streams each output micro-tensor to host as soon as it
	// is produced (the paper's "early swapping of output tensors at
	// micro-tensor granularity"), overlapping PCIe with the remaining
	// micro-operators; the device copy is still freed only after its
	// last forward use.
	EarlyOut bool
	// In2 is a second carved activation input (binary operators such
	// as Add and the gradient-accumulation adds), nil otherwise. It
	// receives the same InOpt treatment as the primary input.
	In2 *graph.Tensor
	// MicroIns are swapped-out inputs of this operator (typically the
	// saved activations of a backward op) that are streamed back in at
	// micro-tensor granularity instead of being restored whole; their
	// TensorPlan carries the matching MicroRestore count.
	MicroIns []*graph.Tensor
}

// Plan is a complete memory-management strategy configuration C of
// paper Eq. 1 for one graph/schedule/device triple: the tensor and
// split decisions are two lists, each in strictly ascending ID order
// with one entry per ID, so every walk over a plan is a plain range in
// a fixed order.
//
// A plan's lists have storage of their own unless its producer was
// handed a PlanStore: such a plan lives only until the store's next
// use, and only a caller that drops it after its verdict asks for one.
type Plan struct {
	// Name identifies the policy that produced the plan ("tsplit",
	// "vdnn-all", ...).
	Name string
	// Dev is the device the plan was made for.
	Dev device.Device
	// Tensors lists the non-reside decisions in strictly ascending
	// Tensor.ID order. A tensor without an entry resides. Tensor finds
	// one by ID.
	Tensors []TensorPlan
	// Splits lists the split decisions in strictly ascending Op.ID
	// order. An op without an entry runs unsplit. SplitFor finds one.
	Splits []OpSplit

	// OffloadOptimizer moves optimizer state and the parameter update
	// computation to the CPU (ZeRO-Offload): optimizer state never
	// occupies device memory and parameter gradients stream out as
	// produced.
	OffloadOptimizer bool
	// ShardParams keeps parameters in host memory and stages each
	// layer's parameters in and out around their uses
	// (FairScale-Offload).
	ShardParams bool

	// PredictedTime is the planner's estimate of one iteration in
	// seconds (T + ΔT(C)); zero when the producer does not predict.
	PredictedTime float64
	// PredictedPeak is the planner's estimate of peak device memory.
	PredictedPeak int64

	// ChainTransients, when non-nil, adds per-schedule-index transient
	// memory for recompute-chain regenerations to the memory curve.
	// FinalizeWindows derives it for baseline plans, whose deep chains
	// (sqrt(N) checkpointing) the per-tensor ChainBytes point charges
	// cannot bound without double-counting co-consumed chains: the
	// runtime regenerates an op's inputs sequentially and retires each
	// chain's intermediates before starting the next, so the per-index
	// bound is the maximum — not the sum — over that op's restorations.
	ChainTransients []int64
}

// NewPlan returns an empty (all-reside) plan: both lists nil.
func NewPlan(name string, dev device.Device) *Plan {
	return &Plan{Name: name, Dev: dev}
}

// PlanStore is reusable backing storage for plans that die with their
// verdict: a trial run's plan, simulated once for a feasibility verdict
// or a throughput and then dropped. A producer given a store (the
// Planner's PlanIn, a baseline's Inputs.Store, FinalizeWindows) builds
// the plan's Tensors, Splits and ChainTransients in the store's arrays,
// growing them when they are too small, so the next plan built in the
// same store writes over the last one. Such a plan meets every plan
// invariant (ascending IDs, nil lists when empty); it is valid only
// until the store's next use, so no keeper (a cache, a report, an API
// caller) may hold one. The storage lives beside the plan, not inside
// it: an empty plan's nil lists would otherwise drop it.
//
// A nil *PlanStore is the fresh path: exact-size lists that share
// nothing, which every plan that is kept gets. A store serves one
// goroutine at a time.
type PlanStore struct {
	tensors []TensorPlan
	splits  []OpSplit
	chain   []int64
}

// Tensors returns an empty tensor list with room for n entries, for a
// producer to append its decisions to: the store's array, grown if
// need be, or a new one of capacity n on the fresh path.
func (st *PlanStore) Tensors(n int) []TensorPlan {
	if st == nil {
		return make([]TensorPlan, 0, n)
	}
	return room(&st.tensors, n)
}

// splitList is Tensors for the split list.
func (st *PlanStore) splitList(n int) []OpSplit {
	if st == nil {
		return make([]OpSplit, 0, n)
	}
	return room(&st.splits, n)
}

// chainTransients returns n zeroed per-schedule-index charges: the
// store's array, grown if need be and cleared, or a new one on the
// fresh path.
func (st *PlanStore) chainTransients(n int) []int64 {
	if st == nil {
		return make([]int64, n)
	}
	c := room(&st.chain, n)[:n]
	clear(c)
	return c
}

// room returns *buf emptied, with capacity for n elements; *buf keeps
// the array, grown if it was too small.
func room[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)
	return *buf
}

// Tensor returns the decision for the tensor with ID id, if any, by a
// binary search of Tensors.
func (p *Plan) Tensor(id int) (TensorPlan, bool) {
	k, ok := slices.BinarySearchFunc(p.Tensors, id, func(tp TensorPlan, id int) int { return cmp.Compare(tp.Tensor.ID, id) })
	if !ok {
		return TensorPlan{}, false
	}
	return p.Tensors[k], true
}

// SplitFor returns the split decision for op, if any, by a binary
// search of Splits.
func (p *Plan) SplitFor(op *graph.Op) (OpSplit, bool) {
	k, ok := slices.BinarySearchFunc(p.Splits, op.ID, func(sp OpSplit, id int) int { return cmp.Compare(sp.Op.ID, id) })
	if !ok {
		return OpSplit{}, false
	}
	return p.Splits[k], true
}

// Counts reports how many tensors use each option and how many ops are
// split — the summary Fig. 14(b) style reports use.
type Counts struct {
	Swap, Recompute, SplitOps int
	SwapBytes, RecomputeBytes int64
}

// Counts summarizes the plan.
func (p *Plan) Counts() Counts {
	var c Counts
	for _, tp := range p.Tensors {
		switch tp.Opt {
		case Swap:
			c.Swap++
			c.SwapBytes += tp.Tensor.Bytes()
		case Recompute:
			c.Recompute++
			c.RecomputeBytes += tp.Tensor.Bytes()
		}
	}
	c.SplitOps = len(p.Splits)
	return c
}

// String renders a human-readable plan summary (full dumps come from
// Describe).
func (p *Plan) String() string {
	c := p.Counts()
	return fmt.Sprintf("plan %s on %s: %d swapped (%.1f MiB), %d recomputed (%.1f MiB), %d split ops",
		p.Name, p.Dev.Name, c.Swap, float64(c.SwapBytes)/(1<<20), c.Recompute, float64(c.RecomputeBytes)/(1<<20), c.SplitOps)
}

// Describe renders the full decision list, ordered by tensor ID, for
// plan inspection tooling (cmd/tsplit-plan).
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintln(&b, p.String())
	for _, tp := range p.Tensors {
		fmt.Fprintf(&b, "  %-9s %-40s %8.1f MiB evict@%d restore@%d prefetch@%d\n",
			tp.Opt, tp.Tensor.Name, float64(tp.Tensor.Bytes())/(1<<20), tp.EvictAt, tp.RestoreAt, tp.PrefetchAt)
	}
	for _, s := range p.Splits {
		fmt.Fprintf(&b, "  split     %-40s p_num=%d dim=%s in=%s early-out=%v\n",
			s.Op.Name, s.PNum, s.Dim, s.InOpt, s.EarlyOut)
	}
	return b.String()
}
