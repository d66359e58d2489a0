package graph

import (
	"fmt"

	"tsplit/internal/tensor"
)

// Template rebatches one model's training graph. A graph's topology,
// schedule order and tensor lifetimes do not depend on its batch size;
// only tensor shapes, operator workspaces and with them the memory
// curve do, and in the model zoo every dimension is affine in the
// batch. A template therefore keeps the batch-1 build, the
// per-sample increment of every dimension and workspace, and the
// batch-1 schedule and lifetimes, and Rebatch produces the graph,
// schedule and liveness at any batch in O(tensors + ops) without
// building, scheduling or analysing anything again — into a workload
// it filled before, without allocating either.
//
// A Template is immutable once built; Rebatch may be called from
// several goroutines at once, each filling its own workload.
type Template struct {
	proto *Graph // the batch-1 build: every batch-independent field

	// step is the increment per extra sample of every tensor
	// dimension, concatenated; tensor i's are [shapeOff[i],
	// shapeOff[i+1]). wsStep is the same for op workspaces, by op ID.
	step     []int
	shapeOff []int
	wsStep   []int64

	// order is the batch-1 schedule as op IDs; first and last are
	// Liveness.FirstUse and LastUse by tensor ID.
	order       []int
	first, last []int

	// tensorRefs and opRefs size the backing arrays the result's
	// tensor lists (op inputs and outputs, graph inputs, params and
	// optimizer state) and op lists (consumers, control deps) are
	// carved from.
	tensorRefs, opRefs int
}

// NewTemplate builds a template from two builds of one model, at batch
// 1 (g1) and batch 2 (g2). It fails unless the two graphs have the same
// tensors and operators — names, kinds, dtypes, ranks, attributes and
// wiring — with IDs equal to their positions, and no dimension or
// workspace shrinks from g1 to g2.
func NewTemplate(g1, g2 *Graph) (*Template, error) {
	if err := sameStructure(g1, g2); err != nil {
		return nil, fmt.Errorf("graph: template: %w", err)
	}
	sched, err := BuildSchedule(g1)
	if err != nil {
		return nil, err
	}
	lv := AnalyzeLiveness(g1, sched)
	tp := &Template{
		proto:    g1,
		shapeOff: make([]int, len(g1.Tensors)+1),
		wsStep:   make([]int64, len(g1.Ops)),
		order:    make([]int, len(sched.Ops)),
		first:    make([]int, len(g1.Tensors)),
		last:     make([]int, len(g1.Tensors)),
	}
	tp.tensorRefs = len(g1.Inputs) + len(g1.Params) + len(g1.OptStates)
	for i, t := range g1.Tensors {
		tp.shapeOff[i] = len(tp.step)
		for d, d1 := range t.Shape {
			d2 := g2.Tensors[i].Shape[d]
			if d2 < d1 {
				return nil, fmt.Errorf("graph: template: tensor %s dim %d shrinks from %d to %d", t.Name, d, d1, d2)
			}
			tp.step = append(tp.step, d2-d1)
		}
		tp.opRefs += len(t.Consumers)
		tp.first[i] = lv.FirstUse[t]
		tp.last[i] = lv.LastUse[t]
	}
	tp.shapeOff[len(g1.Tensors)] = len(tp.step)
	for i, op := range g1.Ops {
		w1, w2 := op.Workspace, g2.Ops[i].Workspace
		if w2 < w1 {
			return nil, fmt.Errorf("graph: template: op %s workspace shrinks from %d to %d", op.Name, w1, w2)
		}
		tp.wsStep[i] = w2 - w1
		tp.tensorRefs += len(op.Inputs) + len(op.Outputs)
		tp.opRefs += len(op.ControlDeps)
	}
	for i, op := range sched.Ops {
		tp.order[i] = op.ID
	}
	return tp, nil
}

// Workload is a graph with its schedule and liveness, as Rebatch fills
// it. The zero value is empty.
type Workload struct {
	G     *Graph
	Sched *Schedule
	Lv    *Liveness

	tp    *Template // the template that last filled it
	delta []int64   // the memory curve's alloc/free transitions, by schedule position
}

// Rebatch fills w with the workload at batch n ≥ 1, equal field for
// field to building, scheduling and analysing the model at that batch,
// and draws the graph a new generation. An empty w, or one filled from
// another template, gets a fresh graph, schedule and liveness that
// share nothing mutable with the template or with other workloads. A w
// this template filled before is rewritten in place: tensor shapes and
// sizes, operator workspaces and the memory curve (MemAt, Peak,
// PeakIdx, Resident) change; every *Tensor and *Op, the wiring, the
// schedule with its Index and the lifetimes stay as they are. Whoever
// filled w must be done with it, and must not have added to or rewired
// its graph.
func (tp *Template) Rebatch(n int, w *Workload) {
	if n < 1 {
		panic(fmt.Sprintf("graph: Rebatch(%d): batch must be at least 1", n))
	}
	if w.tp != tp || len(w.G.Tensors) != len(tp.proto.Tensors) || len(w.G.Ops) != len(tp.proto.Ops) {
		tp.alloc(w)
	}
	tp.resize(w, n)
}

// alloc fills w with a fresh copy of everything batch-independent: the
// graph's tensors and operators with their wiring, the schedule and
// the lifetimes. Shapes get their own storage; resize writes them.
func (tp *Template) alloc(w *Workload) {
	p := tp.proto
	tensors := make([]Tensor, len(p.Tensors))
	ops := make([]Op, len(p.Ops))
	dims := make([]int, len(tp.step))
	tensorRefs := make([]*Tensor, tp.tensorRefs)
	opRefs := make([]*Op, tp.opRefs)
	// The carved lists are capped at their length, so an append (the
	// planner's rewrite adds control deps) reallocates instead of
	// writing into a neighbour's list.
	tensorList := func(src []*Tensor) []*Tensor {
		if len(src) == 0 {
			return src[:0:0]
		}
		out := tensorRefs[:len(src):len(src)]
		tensorRefs = tensorRefs[len(src):]
		for k, t := range src {
			out[k] = &tensors[t.ID]
		}
		return out
	}
	opList := func(src []*Op) []*Op {
		if len(src) == 0 {
			return src[:0:0]
		}
		out := opRefs[:len(src):len(src)]
		opRefs = opRefs[len(src):]
		for k, o := range src {
			out[k] = &ops[o.ID]
		}
		return out
	}

	g := &Graph{
		Tensors:      make([]*Tensor, len(tensors)),
		Ops:          make([]*Op, len(ops)),
		nextTensorID: len(tensors),
		nextOpID:     len(ops),
	}
	for i, src := range p.Tensors {
		t := &tensors[i]
		*t = *src
		lo, hi := tp.shapeOff[i], tp.shapeOff[i+1]
		t.Shape = tensor.Shape(dims[lo:hi:hi])
		t.Consumers = opList(src.Consumers)
		if src.Producer != nil {
			t.Producer = &ops[src.Producer.ID]
		}
		if src.GradOf != nil {
			t.GradOf = &tensors[src.GradOf.ID]
		}
		g.Tensors[i] = t
	}
	for i, src := range p.Ops {
		o := &ops[i]
		*o = *src
		o.Inputs = tensorList(src.Inputs)
		o.Outputs = tensorList(src.Outputs)
		o.ControlDeps = opList(src.ControlDeps)
		if src.FwdOp != nil {
			o.FwdOp = &ops[src.FwdOp.ID]
		}
		g.Ops[i] = o
	}
	g.Inputs = tensorList(p.Inputs)
	g.Params = tensorList(p.Params)
	g.OptStates = tensorList(p.OptStates)
	if p.Loss != nil {
		g.Loss = &tensors[p.Loss.ID]
	}

	sched := &Schedule{Ops: make([]*Op, len(tp.order)), Index: make(map[*Op]int, len(tp.order))}
	for i, id := range tp.order {
		sched.Ops[i] = &ops[id]
		sched.Index[&ops[id]] = i
	}
	lv := newLiveness(sched, len(tensors))
	for i := range tensors {
		lv.FirstUse[&tensors[i]] = tp.first[i]
		lv.LastUse[&tensors[i]] = tp.last[i]
	}
	*w = Workload{G: g, Sched: sched, Lv: lv, tp: tp, delta: make([]int64, len(tp.order)+1)}
}

// resize writes everything that depends on the batch into a workload
// alloc filled: dimensions, byte sizes, workspaces and the memory
// curve, and draws the graph's next generation.
func (tp *Template) resize(w *Workload, n int) {
	p, g, lv := tp.proto, w.G, w.Lv
	for i, src := range p.Tensors {
		t := g.Tensors[i]
		lo := tp.shapeOff[i]
		for d, d1 := range src.Shape {
			t.Shape[d] = d1 + tp.step[lo+d]*(n-1)
		}
		t.bytes = t.Shape.Bytes(t.DType)
	}
	for i, src := range p.Ops {
		g.Ops[i].Workspace = src.Workspace + tp.wsStep[i]*int64(n-1)
	}
	clear(w.delta)
	lv.Resident, lv.Peak, lv.PeakIdx = 0, 0, 0
	for i, t := range g.Tensors {
		lv.charge(t.bytes, tp.first[i], tp.last[i], w.delta)
	}
	lv.curve(w.delta)
	g.gen = generations.Add(1)
}

// sameStructure reports the first difference between two graphs other
// than their dimensions and workspaces, or nil.
func sameStructure(g1, g2 *Graph) error {
	if len(g1.Tensors) != len(g2.Tensors) || len(g1.Ops) != len(g2.Ops) {
		return fmt.Errorf("%d tensors and %d ops vs %d and %d",
			len(g1.Tensors), len(g1.Ops), len(g2.Tensors), len(g2.Ops))
	}
	for i, a := range g1.Tensors {
		b := g2.Tensors[i]
		switch {
		case a.ID != i || b.ID != i:
			return fmt.Errorf("tensor %d has IDs %d and %d", i, a.ID, b.ID)
		case a.Name != b.Name || a.DType != b.DType || a.Kind != b.Kind || a.Shape.Rank() != b.Shape.Rank():
			return fmt.Errorf("tensor %d is %v vs %v", i, a, b)
		case !sameOp(g1, g2, a.Producer, b.Producer) || !sameOps(g1, g2, a.Consumers, b.Consumers) ||
			!sameTensor(g1, g2, a.GradOf, b.GradOf):
			return fmt.Errorf("tensor %s is wired differently", a.Name)
		}
	}
	for i, a := range g1.Ops {
		b := g2.Ops[i]
		switch {
		case a.ID != i || b.ID != i:
			return fmt.Errorf("op %d has IDs %d and %d", i, a.ID, b.ID)
		case a.Name != b.Name || a.Kind != b.Kind || a.Phase != b.Phase || a.Attrs != b.Attrs:
			return fmt.Errorf("op %d is %v vs %v", i, a, b)
		case !sameTensors(g1, g2, a.Inputs, b.Inputs) || !sameTensors(g1, g2, a.Outputs, b.Outputs) ||
			!sameOps(g1, g2, a.ControlDeps, b.ControlDeps) || !sameOp(g1, g2, a.FwdOp, b.FwdOp):
			return fmt.Errorf("op %s is wired differently", a.Name)
		}
	}
	if !sameTensors(g1, g2, g1.Inputs, g2.Inputs) || !sameTensors(g1, g2, g1.Params, g2.Params) ||
		!sameTensors(g1, g2, g1.OptStates, g2.OptStates) || !sameTensor(g1, g2, g1.Loss, g2.Loss) {
		return fmt.Errorf("inputs, params, optimizer state or loss differ")
	}
	return nil
}

// sameTensor reports whether a (of g1) and b (of g2) are both nil or
// both members of their graphs at the same position.
func sameTensor(g1, g2 *Graph, a, b *Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ID == b.ID && a.ID >= 0 && a.ID < len(g1.Tensors) && g1.Tensors[a.ID] == a && g2.Tensors[b.ID] == b
}

func sameOp(g1, g2 *Graph, a, b *Op) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ID == b.ID && a.ID >= 0 && a.ID < len(g1.Ops) && g1.Ops[a.ID] == a && g2.Ops[b.ID] == b
}

func sameTensors(g1, g2 *Graph, a, b []*Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !sameTensor(g1, g2, a[k], b[k]) {
			return false
		}
	}
	return true
}

func sameOps(g1, g2 *Graph, a, b []*Op) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !sameOp(g1, g2, a[k], b[k]) {
			return false
		}
	}
	return true
}
