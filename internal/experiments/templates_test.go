package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// tensorID is t's ID if t belongs to g, -1 for nil and -2 for a tensor
// of another graph, so a rebatched link that points back into the
// template's graph never compares equal.
func tensorID(g *graph.Graph, t *graph.Tensor) int {
	switch {
	case t == nil:
		return -1
	case t.ID < 0 || t.ID >= len(g.Tensors) || g.Tensors[t.ID] != t:
		return -2
	}
	return t.ID
}

func opID(g *graph.Graph, o *graph.Op) int {
	switch {
	case o == nil:
		return -1
	case o.ID < 0 || o.ID >= len(g.Ops) || g.Ops[o.ID] != o:
		return -2
	}
	return o.ID
}

func tensorIDs(g *graph.Graph, ts []*graph.Tensor) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = tensorID(g, t)
	}
	return ids
}

func opIDs(g *graph.Graph, os []*graph.Op) []int {
	ids := make([]int, len(os))
	for i, o := range os {
		ids[i] = opID(g, o)
	}
	return ids
}

// sameWorkload reports the first field in which a rebatched workload
// differs from a fresh build, or "".
func sameWorkload(rb, fr *Prepared) string {
	g, f := rb.G, fr.G
	if len(g.Tensors) != len(f.Tensors) || len(g.Ops) != len(f.Ops) {
		return "tensor or op count"
	}
	for i, a := range g.Tensors {
		b := f.Tensors[i]
		switch {
		case a.ID != b.ID || a.Name != b.Name || !a.Shape.Equal(b.Shape) || a.DType != b.DType || a.Kind != b.Kind:
			return "tensor " + b.Name
		case a.Bytes() != b.Bytes():
			return "bytes of " + b.Name
		case opID(g, a.Producer) != opID(f, b.Producer) || tensorID(g, a.GradOf) != tensorID(f, b.GradOf) ||
			!reflect.DeepEqual(opIDs(g, a.Consumers), opIDs(f, b.Consumers)):
			return "links of " + b.Name
		}
	}
	for i, a := range g.Ops {
		b := f.Ops[i]
		switch {
		case a.ID != b.ID || a.Name != b.Name || a.Kind != b.Kind || a.Phase != b.Phase ||
			!reflect.DeepEqual(a.Attrs, b.Attrs) || a.Workspace != b.Workspace:
			return "op " + b.Name
		case !reflect.DeepEqual(tensorIDs(g, a.Inputs), tensorIDs(f, b.Inputs)) ||
			!reflect.DeepEqual(tensorIDs(g, a.Outputs), tensorIDs(f, b.Outputs)) ||
			!reflect.DeepEqual(opIDs(g, a.ControlDeps), opIDs(f, b.ControlDeps)) ||
			opID(g, a.FwdOp) != opID(f, b.FwdOp):
			return "links of op " + b.Name
		}
	}
	if !reflect.DeepEqual(tensorIDs(g, g.Inputs), tensorIDs(f, f.Inputs)) ||
		!reflect.DeepEqual(tensorIDs(g, g.Params), tensorIDs(f, f.Params)) ||
		!reflect.DeepEqual(tensorIDs(g, g.OptStates), tensorIDs(f, f.OptStates)) ||
		tensorID(g, g.Loss) != tensorID(f, f.Loss) {
		return "inputs, params, optimizer state or loss"
	}
	if !reflect.DeepEqual(opIDs(g, rb.Sched.Ops), opIDs(f, fr.Sched.Ops)) || len(rb.Sched.Index) != len(fr.Sched.Index) {
		return "schedule order"
	}
	for i, op := range g.Ops {
		if rb.Sched.Index[op] != fr.Sched.Index[f.Ops[i]] {
			return "schedule index of " + op.Name
		}
	}
	lv, flv := rb.Lv, fr.Lv
	if len(lv.FirstUse) != len(flv.FirstUse) || len(lv.LastUse) != len(flv.LastUse) {
		return "lifetime map sizes"
	}
	for i, t := range g.Tensors {
		if lv.FirstUse[t] != flv.FirstUse[f.Tensors[i]] || lv.LastUse[t] != flv.LastUse[f.Tensors[i]] {
			return "lifetime of " + t.Name
		}
	}
	if !reflect.DeepEqual(lv.MemAt, flv.MemAt) || lv.Peak != flv.Peak || lv.PeakIdx != flv.PeakIdx || lv.Resident != flv.Resident {
		return "memory curve"
	}
	if !reflect.DeepEqual(rb.Prof.T, fr.Prof.T) {
		return "profiled op times"
	}
	return ""
}

// TestRebatchMatchesFreshBuild is the equivalence proof behind the
// batch-axis sweeps: a workload rebatched from its model's template is
// field for field the workload Prepare builds, for every evaluation
// model and BERT-Large, batches from 1 to 2048, both optimizers of the
// experiments, and a non-default image size and sequence length. Each
// model's batches go through one recycled slot, in a scrambled order,
// so every one but the first is a rewrite in place of another batch.
func TestRebatchMatchesFreshBuild(t *testing.T) {
	dev := device.TitanRTX
	type workload struct {
		model string
		cfg   models.Config
	}
	var wls []workload
	for _, m := range append(append([]string{}, EvalModels...), "bert-large") {
		for _, opt := range []graph.Optimizer{graph.Momentum, graph.Adam} {
			wls = append(wls, workload{m, models.Config{Optimizer: opt}})
		}
	}
	wls = append(wls, workload{"resnet50", models.Config{ImageSize: 160}}, workload{"transformer", models.Config{SeqLen: 64}})
	batches := []int{2048, 1, 255, 3, 1024, 7, 64, 2, 16}
	for _, w := range wls {
		ts := newTemplates(dev)
		var slot *Prepared
		for _, b := range batches {
			cfg := w.cfg
			cfg.BatchSize = b
			rb, err := ts.prepare(w.model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if slot != nil && rb != slot {
				t.Fatalf("%s %+v: prepare did not recycle the released slot", w.model, cfg)
			}
			slot = rb
			fr, err := Prepare(w.model, cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameWorkload(rb, fr); diff != "" {
				t.Fatalf("%s %+v: rebatched workload differs from a fresh build in %s", w.model, cfg, diff)
			}
			if rb.Cfg != cfg || rb.Model != w.model || rb.Dev != dev {
				t.Fatalf("%s %+v: rebatched workload is labelled %s %+v", w.model, cfg, rb.Model, rb.Cfg)
			}
			rb.release()
		}
	}
}

// TestTemplatesPrepareConcurrent asks one template set for one model at
// several batches from several goroutines (run under -race), each
// releasing its slot and borrowing again at another batch: the
// template is built once, by two graph builds, no more slots are
// allocated than goroutines hold at once, and every workload matches a
// fresh build.
func TestTemplatesPrepareConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	batches := []int{8, 8, 16, 32, 32, 64, 1, 3}
	fresh := map[int]*Prepared{}
	for _, b := range batches {
		fr, err := Prepare("resnet50", models.Config{BatchSize: b}, device.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		fresh[b] = fr
	}
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()

	ts := newTemplates(device.TitanRTX)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				b := batches[(i+round*3)%len(batches)]
				p, err := ts.prepare("resnet50", models.Config{BatchSize: b})
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameWorkload(p, fresh[b]); diff != "" {
					t.Errorf("batch %d: differs from a fresh build in %s", b, diff)
				}
				p.release()
			}
		}(i)
	}
	wg.Wait()
	if got := reg.Counter("tsplit_experiments_graph_builds_total"); got != 2 {
		t.Fatalf("%d graph builds for one template, want 2", got)
	}
	if got := reg.Counter("tsplit_experiments_workload_slots_total"); got < 1 || got > int64(len(batches)) {
		t.Fatalf("%d workload slots for %d goroutines", got, len(batches))
	}
}

// TestTable4GraphBuilds counts the work the Table IV search does: two
// graph builds per model, however many batch sizes it probes.
func TestTable4GraphBuilds(t *testing.T) {
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()
	Table4MaxSampleScale(device.TitanRTX, 64)
	if got, want := reg.Counter("tsplit_experiments_graph_builds_total"), int64(2*len(EvalModels)); got != want {
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
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	reg := obs.NewRegistry()
	Obs = reg
	defer func() { Obs = nil }()
	Table4MaxSampleScale(device.TitanRTX, 64)
	if got, want := reg.Counter("tsplit_experiments_workload_slots_total"), int64(len(EvalModels)); got != want {
		t.Fatalf("Table IV search allocated %d workload slots, want %d", got, want)
	}
}
