package graph

import (
	"fmt"
)

// Schedule is a total execution order over a graph's operators, built
// by the depth-first scheduler of the paper's Algorithm 1. Tensors are
// allocated at the start of their producer and freed after their last
// scheduled consumer (paper Sec. IV-A).
type Schedule struct {
	Ops   []*Op
	Index map[*Op]int
}

// BuildSchedule topologically orders the graph in the depth-first
// manner of Algorithm 1: each operator is pushed as soon as its last
// dependency retires, and its successors are explored depth-first in
// creation order. The result is deterministic for a given graph.
func BuildSchedule(g *Graph) (*Schedule, error) {
	n := len(g.Ops)
	pos := make(map[*Op]int, n) // op -> creation position
	edges := 0
	for i, op := range g.Ops {
		pos[op] = i
		edges += len(op.Inputs) + len(op.ControlDeps)
	}
	// refcnt[i] counts op i's dependency edges: one per data input with
	// a producer, one per control dep. deps[depOff[i]:depOff[i+1]] are
	// the edges' source positions. A source outside g.Ops is counted
	// but never retires. A repeated source is harmless: its edges sit
	// side by side in its dependents and retire together.
	refcnt := make([]int, n)
	deps := make([]int, 0, edges)
	depOff := make([]int, n+1)
	// start[j+1] first counts, then offsets, op j's dependents.
	start := make([]int, n+1)
	for i, op := range g.Ops {
		dep := func(p *Op) {
			refcnt[i]++
			if j, ok := pos[p]; ok {
				deps = append(deps, j)
				start[j+1]++
			}
		}
		for _, in := range op.Inputs {
			if p := in.Producer; p != nil {
				dep(p)
			}
		}
		for _, d := range op.ControlDeps {
			dep(d)
		}
		depOff[i+1] = len(deps)
	}
	// dependents[start[j]:start[j+1]] are the ops waiting on op j, in
	// creation order.
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	dependents := make([]int, len(deps))
	fill := append([]int(nil), start[:n]...) // next free slot per op
	for i := 0; i < n; i++ {
		for _, j := range deps[depOff[i]:depOff[i+1]] {
			dependents[fill[j]] = i
			fill[j]++
		}
	}

	s := &Schedule{Ops: make([]*Op, 0, n), Index: make(map[*Op]int, n)}
	var visit func(i int)
	visit = func(i int) {
		op := g.Ops[i]
		s.Index[op] = len(s.Ops)
		s.Ops = append(s.Ops, op)
		for _, k := range dependents[start[i]:start[i+1]] {
			refcnt[k]--
			if refcnt[k] == 0 {
				visit(k)
			}
		}
	}
	for i, op := range g.Ops {
		if refcnt[i] == 0 {
			if _, done := s.Index[op]; !done {
				visit(i)
			}
		}
	}
	if len(s.Ops) != n {
		return nil, fmt.Errorf("graph: schedule covered %d of %d ops (cycle via control deps?)", len(s.Ops), n)
	}
	return s, nil
}

// Liveness is the per-operation memory requirement of a schedule under
// the default (no memory optimization) execution model: every tensor
// resides on device from its producer to its last consumer, and
// parameters, optimizer state and staged inputs reside for the whole
// iteration.
type Liveness struct {
	Sched *Schedule
	// FirstUse is the schedule index at which the tensor is allocated
	// (its producer), or -1 for tensors resident from the start.
	FirstUse map[*Tensor]int
	// LastUse is the schedule index of the tensor's final consumer; for
	// resident tensors it is the final operation.
	LastUse map[*Tensor]int
	// MemAt[i] is the device memory (bytes) required while executing
	// schedule op i, including op i's workspace.
	MemAt []int64
	// Peak is the maximum of MemAt and PeakIdx its schedule position.
	Peak    int64
	PeakIdx int
	// Resident is the always-on-device footprint (params, opt state,
	// staged inputs).
	Resident int64
}

// AnalyzeLiveness computes tensor lifetimes and the memory-requirement
// curve M_i of paper Sec. IV-A for the given schedule.
func AnalyzeLiveness(g *Graph, s *Schedule) *Liveness {
	n := len(s.Ops)
	lv := newLiveness(s, len(g.Tensors))
	// delta[i] accumulates alloc(+)/free(-) transitions at op i.
	delta := make([]int64, n+1)
	for _, t := range g.Tensors {
		first := -1
		if t.Producer != nil {
			first = s.Index[t.Producer]
		}
		last := first
		if first == -1 {
			last = n - 1
		}
		for _, c := range t.Consumers {
			if i := s.Index[c]; i > last {
				last = i
			}
		}
		lv.account(t, first, last, delta)
	}
	lv.curve(delta)
	return lv
}

func newLiveness(s *Schedule, tensors int) *Liveness {
	return &Liveness{
		Sched:    s,
		FirstUse: make(map[*Tensor]int, tensors),
		LastUse:  make(map[*Tensor]int, tensors),
		MemAt:    make([]int64, len(s.Ops)),
	}
}

// account records t's lifetime [first, last] and charges its bytes.
func (lv *Liveness) account(t *Tensor, first, last int, delta []int64) {
	lv.FirstUse[t] = first
	lv.LastUse[t] = last
	lv.charge(t.Bytes(), first, last, delta)
}

// charge adds b bytes living over [first, last] to Resident (first ==
// -1) or to the alloc/free transitions in delta.
func (lv *Liveness) charge(b int64, first, last int, delta []int64) {
	if first == -1 {
		lv.Resident += b
		return
	}
	delta[first] += b
	delta[last+1] -= b
}

// curve integrates delta over the schedule into MemAt, Peak and
// PeakIdx, adding each op's workspace.
func (lv *Liveness) curve(delta []int64) {
	run := lv.Resident
	for i, op := range lv.Sched.Ops {
		run += delta[i]
		lv.MemAt[i] = run + op.Workspace
		if lv.MemAt[i] > lv.Peak {
			lv.Peak = lv.MemAt[i]
			lv.PeakIdx = i
		}
	}
}
