package graph

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tsplit/internal/tensor"
)

// tinyConv builds a small convolutional net whose convolution carries
// a batch-dependent workspace on top of its per-sample im2col buffer,
// so that rebatching a workspace is exercised (the zoo's workspaces do
// not depend on the batch).
func tinyConv(t *testing.T, batch int, opt Optimizer) *Graph {
	t.Helper()
	g := New()
	x := g.Input("x", tensor.NewShape(batch, 3, 8, 8), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	c := g.Conv2D("c", x, 4, 3, 1, 1)
	c.Producer.Workspace += int64(batch) * 96
	p := g.AvgPool("gap", g.ReLU("c.relu", c), 8, 1, 0)
	logits := g.Dense("fc", g.Reshape("flat", p, tensor.NewShape(batch, 4)), 3)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(opt); err != nil {
		t.Fatal(err)
	}
	return g
}

var templateNets = []struct {
	name  string
	build func(*testing.T, int, Optimizer) *Graph
}{{"mlp", tinyMLP}, {"conv", tinyConv}}

func newTemplate(t *testing.T, build func(*testing.T, int, Optimizer) *Graph, opt Optimizer) *Template {
	t.Helper()
	tp, err := NewTemplate(build(t, 1, opt), build(t, 2, opt))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// rebatch fills a fresh workload at batch n.
func rebatch(tp *Template, n int) (*Graph, *Schedule, *Liveness) {
	var w Workload
	tp.Rebatch(n, &w)
	return w.G, w.Sched, w.Lv
}

// checkRebatch compares a rebatched graph, schedule and liveness with
// a fresh build at the same batch: the graphs deeply (every field,
// every link), the schedule and liveness by position.
func checkRebatch(t *testing.T, g *Graph, s *Schedule, lv *Liveness, fresh *Graph) {
	t.Helper()
	if g.gen == fresh.gen || g.gen == 0 {
		t.Fatalf("rebatched graph has generation %d, a fresh build %d", g.gen, fresh.gen)
	}
	fresh.gen = g.gen // the one field that must differ
	if !reflect.DeepEqual(g, fresh) {
		t.Fatal("rebatched graph differs from a fresh build")
	}
	fs, err := BuildSchedule(fresh)
	if err != nil {
		t.Fatal(err)
	}
	flv := AnalyzeLiveness(fresh, fs)
	if len(s.Ops) != len(fs.Ops) || len(s.Index) != len(fs.Index) {
		t.Fatalf("schedule has %d ops, %d indexed; fresh %d, %d", len(s.Ops), len(s.Index), len(fs.Ops), len(fs.Index))
	}
	for i, op := range s.Ops {
		if op != g.Ops[op.ID] || op.ID != fs.Ops[i].ID || s.Index[op] != i {
			t.Fatalf("schedule position %d: op %s, fresh %s", i, op, fs.Ops[i])
		}
	}
	if len(lv.FirstUse) != len(flv.FirstUse) || len(lv.LastUse) != len(flv.LastUse) {
		t.Fatal("lifetime maps differ in size")
	}
	for i, tt := range g.Tensors {
		ft := fresh.Tensors[i]
		if lv.FirstUse[tt] != flv.FirstUse[ft] || lv.LastUse[tt] != flv.LastUse[ft] {
			t.Fatalf("tensor %s lives [%d, %d], fresh [%d, %d]", tt.Name,
				lv.FirstUse[tt], lv.LastUse[tt], flv.FirstUse[ft], flv.LastUse[ft])
		}
	}
	if !reflect.DeepEqual(lv.MemAt, flv.MemAt) || lv.Peak != flv.Peak || lv.PeakIdx != flv.PeakIdx ||
		lv.Resident != flv.Resident || lv.Sched != s {
		t.Fatalf("memory curve differs: peak %d@%d resident %d, fresh %d@%d resident %d",
			lv.Peak, lv.PeakIdx, lv.Resident, flv.Peak, flv.PeakIdx, flv.Resident)
	}
}

func TestRebatchMatchesBuild(t *testing.T) {
	for _, net := range templateNets {
		for _, opt := range []Optimizer{SGD, Adam} {
			tp := newTemplate(t, net.build, opt)
			for _, n := range []int{1, 2, 3, 17, 1000} {
				t.Run(fmt.Sprintf("%s/%s/%d", net.name, opt, n), func(t *testing.T) {
					g, s, lv := rebatch(tp, n)
					checkRebatch(t, g, s, lv, net.build(t, n, opt))
				})
			}
		}
	}
}

// TestRebatchRecyclesWorkload pushes one workload through a scrambled
// sequence of batches: each rebatch must equal a fresh build, keep
// every graph, schedule, liveness, tensor and operator pointer, draw a
// new generation and allocate nothing. A workload another template
// filled, or one whose graph grew, is refilled from scratch.
func TestRebatchRecyclesWorkload(t *testing.T) {
	for _, net := range templateNets {
		tp := newTemplate(t, net.build, Adam)
		var w Workload
		tp.Rebatch(1000, &w)
		g, s, lv := w.G, w.Sched, w.Lv
		ptrs := append([]*Tensor(nil), g.Tensors...)
		seen := map[uint64]bool{g.Generation(): true}
		for _, n := range []int{1, 17, 3, 1000, 2, 1} {
			tp.Rebatch(n, &w)
			if w.G != g || w.Sched != s || w.Lv != lv || !reflect.DeepEqual(w.G.Tensors, ptrs) {
				t.Fatalf("%s batch %d: the rewrite replaced the workload's objects", net.name, n)
			}
			if seen[g.Generation()] {
				t.Fatalf("%s batch %d: generation %d drawn twice", net.name, n, g.Generation())
			}
			seen[g.Generation()] = true
			checkRebatch(t, w.G, w.Sched, w.Lv, net.build(t, n, Adam))
		}
		if a := testing.AllocsPerRun(5, func() { tp.Rebatch(64, &w) }); a != 0 {
			t.Errorf("%s: an in-place rebatch allocates %.0f times", net.name, a)
		}
		other := newTemplate(t, net.build, Adam)
		other.Rebatch(5, &w)
		if w.G == g {
			t.Fatalf("%s: a workload filled from another template was rewritten in place", net.name)
		}
		checkRebatch(t, w.G, w.Sched, w.Lv, net.build(t, 5, Adam))
		g = w.G
		g.Param("extra", tensor.NewShape(1))
		other.Rebatch(6, &w)
		if w.G == g {
			t.Fatalf("%s: a workload whose graph grew was rewritten in place", net.name)
		}
		checkRebatch(t, w.G, w.Sched, w.Lv, net.build(t, 6, Adam))
	}
}

// TestRebatchConcurrent rebatches from one template on several
// goroutines and grows each result the way the planner's rewrite and
// the builders do. Under -race any state a result shares with the
// template or another result shows up as a race; a list carved
// without a capped capacity shows up as an append overwriting its
// neighbour.
func TestRebatchConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	tp := newTemplate(t, tinyMLP, Momentum)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			g, _, _ := rebatch(tp, n)
			consumers := make([][]*Op, len(g.Tensors))
			for i, tt := range g.Tensors {
				consumers[i] = append([]*Op(nil), tt.Consumers...)
			}
			first := g.Ops[0]
			for _, op := range g.Ops[1:] {
				op.ControlDeps = append(op.ControlDeps, first)
				op.Inputs = append(op.Inputs, g.Loss)
				op.Inputs[0].Consumers = append(op.Inputs[0].Consumers, op)
			}
			g.Tensors[0].Shape[0]++
			g.Param("extra", tensor.NewShape(n))
			for i, tt := range g.Tensors[:len(consumers)] {
				if !reflect.DeepEqual(tt.Consumers[:len(consumers[i])], consumers[i]) {
					t.Errorf("batch %d: appending to a list overwrote the consumers of %s", n, tt.Name)
				}
			}
			for _, op := range g.Ops[1:] {
				if op.Inputs[len(op.Inputs)-1] != g.Loss || op.ControlDeps[len(op.ControlDeps)-1] != first {
					t.Errorf("batch %d: appending to a list overwrote the inputs or control deps of %s", n, op)
				}
			}
		}(w + 1)
	}
	wg.Wait()
	g, s, lv := rebatch(tp, 5)
	checkRebatch(t, g, s, lv, tinyMLP(t, 5, Momentum))
}

func TestNewTemplateRejectsDifferentGraphs(t *testing.T) {
	renamed := tinyMLP(t, 2, SGD)
	renamed.Ops[1].Name = "fc1-renamed"
	rewired := tinyMLP(t, 2, SGD)
	rewired.Ops[2].Inputs[0] = rewired.Inputs[0]
	reattributed := tinyMLP(t, 2, SGD)
	reattributed.Ops[2].Attrs.Axis = 1
	constrained := tinyMLP(t, 2, SGD)
	constrained.Ops[2].ControlDeps = []*Op{constrained.Ops[0]}
	cases := []struct {
		name   string
		g1, g2 *Graph
		want   string
	}{
		{"optimizer", tinyMLP(t, 1, SGD), tinyMLP(t, 2, Adam), "tensors"},
		{"name", tinyMLP(t, 1, SGD), renamed, "fc1"},
		{"wiring", tinyMLP(t, 1, SGD), rewired, "wired differently"},
		{"attrs", tinyMLP(t, 1, SGD), reattributed, "op 2"},
		{"control deps", tinyMLP(t, 1, SGD), constrained, "wired differently"},
		{"shrinks", tinyMLP(t, 2, SGD), tinyMLP(t, 1, SGD), "shrinks"},
	}
	for _, c := range cases {
		tp, err := NewTemplate(c.g1, c.g2)
		if err == nil || tp != nil {
			t.Fatalf("%s: NewTemplate accepted two different graphs", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestRebatchCopiesEmptyLists rebatches a graph whose empty op lists
// have spare capacity: each result must get its own, or an append to
// one result's list lands in the template's backing array and in
// every other result.
func TestRebatchCopiesEmptyLists(t *testing.T) {
	spare := func(g *Graph) *Graph {
		for _, op := range g.Ops {
			op.ControlDeps = make([]*Op, 0, 1)
			if len(op.Outputs) == 0 {
				op.Outputs = make([]*Tensor, 0, 1)
			}
		}
		return g
	}
	tp, err := NewTemplate(spare(tinyMLP(t, 1, SGD)), spare(tinyMLP(t, 2, SGD)))
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := rebatch(tp, 3)
	b, _, _ := rebatch(tp, 4)
	upd := a.Ops[len(a.Ops)-1] // an update op: no outputs
	for _, g := range []*Graph{a, b} {
		op := g.Ops[upd.ID]
		op.ControlDeps = append(op.ControlDeps, g.Ops[0])
		op.Outputs = append(op.Outputs, g.Tensors[0])
	}
	if upd.ControlDeps[0] != a.Ops[0] || upd.Outputs[0] != a.Tensors[0] {
		t.Fatal("an append to one rebatched graph's list overwrote another's")
	}
}
