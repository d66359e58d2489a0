package prep

import (
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/tensor"
)

// TestBuildRejects checks that neither preparer hands out a workload
// for an unknown model or an unschedulable graph, and that a template
// set keeps failing a model it could not build without building it
// again.
func TestBuildRejects(t *testing.T) {
	if _, err := Build("no-such-model", models.Config{BatchSize: 1}, device.TitanRTX); err == nil {
		t.Fatal("Build accepted an unknown model")
	}
	g := graph.New()
	a := g.ReLU("a", g.Input("x", tensor.NewShape(2, 4), tensor.Float32))
	b := g.ReLU("b", a)
	a.Producer.ControlDeps = append(a.Producer.ControlDeps, b.Producer)
	if _, err := FromGraph("cycle", g, models.Config{}, device.TitanRTX); err == nil {
		t.Fatal("FromGraph accepted a cyclic graph")
	}
	reg := obs.NewRegistry()
	ts := NewTemplates(device.TitanRTX, reg)
	for i := 0; i < 2; i++ {
		if _, err := ts.Prepare("no-such-model", models.Config{BatchSize: 4}); err == nil {
			t.Fatal("Prepare accepted an unknown model")
		}
	}
	if got := reg.Counter(GraphBuilds); got != 1 {
		t.Fatalf("%d graph builds for one unknown model, want 1", got)
	}
}

// TestTemplatesRecycleSlots walks one template slot through three
// batch sizes: Prepare rebatches the released slot in place, labels it
// with the new configuration and matches a fresh build's peak and
// ideal time, and the set builds the model twice and one slot in all.
// A workload Build prepared belongs to no template: releasing it
// leaves the set's slots alone.
func TestTemplatesRecycleSlots(t *testing.T) {
	dev := device.TitanRTX
	reg := obs.NewRegistry()
	ts := NewTemplates(dev, reg)
	var slot *Prepared
	for _, b := range []int{16, 3, 40} {
		cfg := models.Config{BatchSize: b, Optimizer: graph.Adam}
		p, err := ts.Prepare("vgg16", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if slot != nil && p != slot {
			t.Fatalf("batch %d: Prepare did not recycle the released slot", b)
		}
		slot = p
		fr, err := Build("vgg16", cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
		if p.Name != "vgg16" || p.Cfg != cfg || p.Dev != dev {
			t.Fatalf("batch %d: slot labelled %s %+v on %s", b, p.Name, p.Cfg, p.Dev.Name)
		}
		if p.Lv.Peak != fr.Lv.Peak || p.Prof.Total() != fr.Prof.Total() {
			t.Fatalf("batch %d: slot peak %d, ideal %g; fresh build %d, %g", b, p.Lv.Peak, p.Prof.Total(), fr.Lv.Peak, fr.Prof.Total())
		}
		p.Release()
	}
	if got := reg.Counter(GraphBuilds); got != 2 {
		t.Fatalf("%d graph builds for one template, want 2", got)
	}
	if got := reg.Counter(WorkloadSlots); got != 1 {
		t.Fatalf("%d workload slots for one borrower, want 1", got)
	}
}
