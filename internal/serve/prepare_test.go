package serve_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tsplit"
	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
	"tsplit/internal/serve"
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

// sameWorkload reports the first field in which a workload differs
// from a fresh build, or "".
func sameWorkload(rb, fr *prep.Prepared) string {
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

// TestRebatchMatchesFreshBuild is the equivalence proof behind every
// preparer. A workload rebatched from its model's template is field
// for field the workload prep.Build builds, for every evaluation model
// and BERT-Large, batches from 1 to 2048 and 0 (the models' default),
// both optimizers of the experiments, and a non-default image size and
// sequence length. Each
// model's batches go through one recycled slot, in a scrambled order,
// so every one but the first is a rewrite in place of another batch.
// Then, on three zoo configurations, the root API's Load and
// FromGraph, the service's workload builder and a recycled template
// slot all agree with prep.Build: field for field, in the graph digest
// plan keys hash, in the unmanaged peak and in the ideal iteration
// time.
func TestRebatchMatchesFreshBuild(t *testing.T) {
	dev := device.TitanRTX
	type workload struct {
		model string
		cfg   models.Config
	}
	var wls []workload
	for _, m := range append(append([]string{}, experiments.EvalModels...), "bert-large") {
		for _, opt := range []graph.Optimizer{graph.Momentum, graph.Adam} {
			wls = append(wls, workload{m, models.Config{Optimizer: opt}})
		}
	}
	wls = append(wls, workload{"resnet50", models.Config{ImageSize: 160}}, workload{"transformer", models.Config{SeqLen: 64}})
	batches := []int{2048, 1, 255, 0, 3, 1024, 7, 64, 2, 16}
	for _, w := range wls {
		ts := new(prep.Templates)
		var slot *prep.Prepared
		for _, b := range batches {
			cfg := w.cfg
			cfg.BatchSize = b
			rb, err := ts.Prepare(w.model, cfg, dev, nil)
			if err != nil {
				t.Fatal(err)
			}
			if slot != nil && rb != slot {
				t.Fatalf("%s %+v: Prepare did not recycle the released slot", w.model, cfg)
			}
			slot = rb
			fr, err := prep.Build(w.model, cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameWorkload(rb, fr); diff != "" {
				t.Fatalf("%s %+v: rebatched workload differs from a fresh build in %s", w.model, cfg, diff)
			}
			if rb.Cfg != cfg || rb.Name != w.model || rb.Dev != dev {
				t.Fatalf("%s %+v: rebatched workload is labelled %s %+v", w.model, cfg, rb.Name, rb.Cfg)
			}
			rb.Release()
		}
	}

	for _, w := range []workload{
		{"vgg16", models.Config{BatchSize: 64}},
		{"resnet50", models.Config{BatchSize: 24, ImageSize: 160}},
		{"transformer", models.Config{BatchSize: 16, SeqLen: 64, ParamScale: 1.5}},
	} {
		fr, err := prep.Build(w.model, w.cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := tsplit.Load(w.model, w.cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		g, err := models.Build(w.model, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromGraph, err := tsplit.FromGraph(w.model, g, dev, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		served, digest, err := serve.BuildWorkload(&serve.PlanRequest{
			Model:  w.model,
			Device: dev.Name,
			Config: serve.ModelConfig{
				BatchSize: w.cfg.BatchSize, ParamScale: w.cfg.ParamScale,
				ImageSize: w.cfg.ImageSize, SeqLen: w.cfg.SeqLen,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := new(prep.Templates)
		other := w.cfg
		other.BatchSize = 2 * w.cfg.BatchSize
		first, err := ts.Prepare(w.model, other, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		first.Release()
		slot, err := ts.Prepare(w.model, w.cfg, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if slot != first {
			t.Fatalf("%s %+v: Prepare did not recycle the released slot", w.model, w.cfg)
		}
		want := serve.GraphDigest(fr.G)
		if digest != want {
			t.Fatalf("%s %+v: the service's digest differs from a fresh build's", w.model, w.cfg)
		}
		for _, p := range []struct {
			who string
			p   *prep.Prepared
		}{{"tsplit.Load", loaded.Prepared}, {"tsplit.FromGraph", fromGraph.Prepared}, {"serve", served}, {"template slot", slot}} {
			if diff := sameWorkload(p.p, fr); diff != "" {
				t.Fatalf("%s %+v: %s differs from prep.Build in %s", w.model, w.cfg, p.who, diff)
			}
			if p.p.Name != fr.Name || p.p.Cfg != fr.Cfg || p.p.Dev != fr.Dev {
				t.Fatalf("%s %+v: %s labels the workload %s %+v on %s", w.model, w.cfg, p.who, p.p.Name, p.p.Cfg, p.p.Dev.Name)
			}
			if serve.GraphDigest(p.p.G) != want || p.p.Lv.Peak != fr.Lv.Peak || p.p.Prof.Total() != fr.Prof.Total() {
				t.Fatalf("%s %+v: %s differs from prep.Build in digest, peak or ideal time", w.model, w.cfg, p.who)
			}
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
	fresh := map[int]*prep.Prepared{}
	for _, b := range batches {
		fr, err := prep.Build("resnet50", models.Config{BatchSize: b}, device.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		fresh[b] = fr
	}
	reg := obs.NewRegistry()
	ts := new(prep.Templates)
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				b := batches[(i+round*3)%len(batches)]
				p, err := ts.Prepare("resnet50", models.Config{BatchSize: b}, device.TitanRTX, reg)
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameWorkload(p, fresh[b]); diff != "" {
					t.Errorf("batch %d: differs from a fresh build in %s", b, diff)
				}
				p.Release()
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
