package prep

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/sim"
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
	ts := new(Templates)
	for i := 0; i < 2; i++ {
		if _, err := ts.Prepare("no-such-model", models.Config{BatchSize: 4}, device.TitanRTX, reg); err == nil {
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
	ts := new(Templates)
	var slot *Prepared
	for _, b := range []int{16, 3, 40} {
		cfg := models.Config{BatchSize: b, Optimizer: graph.Adam}
		p, err := ts.Prepare("vgg16", cfg, dev, reg)
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

// TestTemplateKeepsReleasedSlots checks the bound on a template's free
// slots: with keep 1, of two workloads released together only the
// first is kept, so borrowing two again allocates one slot more. Batch
// 0 prepares the models' default batch under its own label.
func TestTemplateKeepsReleasedSlots(t *testing.T) {
	reg := obs.NewRegistry()
	tp, err := NewTemplate("resnet50", models.Config{}, device.TitanRTX, reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tp.Prepare(8, reg), tp.Prepare(16, reg)
	a.Release()
	b.Release()
	c, d := tp.Prepare(0, reg), tp.Prepare(4, reg)
	if c != a || d == b {
		t.Fatal("the template kept other slots than the one it may keep")
	}
	if got := reg.Counter(WorkloadSlots); got != 3 {
		t.Fatalf("%d slots allocated, want 3", got)
	}
	fr, err := Build("resnet50", models.Config{}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.BatchSize != 0 || c.Lv.Peak != fr.Lv.Peak {
		t.Fatalf("batch 0 prepared as batch %d with peak %d; Build's default has peak %d", c.Cfg.BatchSize, c.Lv.Peak, fr.Lv.Peak)
	}
}

// TestPolicyTable pins the policy table: the baselines, then TSPLIT's
// three entries, each name once. Every entry plans VGG-16 and its plan
// carries the entry's name, which is how a plan finds its recompute
// strategy again (tsplit's Workload.Run). Unknown names fail to plan
// and to run.
func TestPolicyTable(t *testing.T) {
	want := append(slices.Clone(baselines.Names), "tsplit", "tsplit-nosplit", "tsplit-offload")
	if got := PolicyNames(); !slices.Equal(got, want) {
		t.Fatalf("policy table %v, want %v", got, want)
	}
	p, err := Build("vgg16", models.Config{BatchSize: 32}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	for i := range Policies {
		pol := &Policies[i]
		if got, _ := Lookup(pol.Name); got != pol {
			t.Fatalf("%s: Lookup finds another entry; the name is not unique", pol.Name)
		}
		plan, _, err := p.PlanPolicy(pol.Name, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name, err)
		}
		if plan.Name != pol.Name {
			t.Fatalf("entry %s plans a plan named %s", pol.Name, plan.Name)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup found an unknown policy")
	}
	if got := RecomputeOf(core.NewPlan("hand-made", device.TitanRTX)); got != sim.LRURecompute {
		t.Fatalf("a plan no policy names runs %v, want LRU-hybrid", got)
	}
	if _, _, err := p.PlanPolicy("nope", core.Options{}); err == nil {
		t.Fatal("PlanPolicy accepted an unknown policy")
	}
	if _, _, err := p.RunPolicy("nope", core.Options{}, sim.Options{}); err == nil {
		t.Fatal("RunPolicy accepted an unknown policy")
	}
}

// TestRunPolicyLoop checks the plan → trial-run loop: a baseline runs
// its plan once with its own recompute strategy, whatever strategy the
// caller passes; a TSPLIT entry that fails its first trial run replans
// down the reserve ladder, and returns its last plan with the error
// when no rung fits.
func TestRunPolicyLoop(t *testing.T) {
	p, err := Build("vgg16", models.Config{BatchSize: 128}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	plan, res, err := p.RunPolicy("checkpoints", core.Options{}, sim.Options{Recompute: sim.LRURecompute})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Simulate(plan, sim.Options{Recompute: sim.MemoryCentric})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBytes != want.PeakBytes || res.Time != want.Time {
		t.Fatalf("checkpoints ran at peak %d, %gs; memory-centric runs it at %d, %gs", res.PeakBytes, res.Time, want.PeakBytes, want.Time)
	}

	// At 55% of VGG-16 b32's unmanaged peak the first plan fails its
	// trial run and a later rung's plan runs; at 45% of b64's no plan
	// runs, and the last one made comes back with the error.
	for _, c := range []struct {
		batch int
		pct   int64
		fits  bool
	}{{32, 55, true}, {64, 45, false}} {
		p, err := Build("vgg16", models.Config{BatchSize: c.batch}, device.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{Capacity: p.Lv.Peak * c.pct / 100}
		so := sim.Options{Capacity: opts.Capacity}
		first, _, err := p.PlanPolicy("tsplit", opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Simulate(first, sim.Options{Capacity: opts.Capacity, Recompute: sim.LRURecompute}); err == nil {
			t.Fatalf("b%d at %d%%: the first rung runs; the ladder is not exercised", c.batch, c.pct)
		}
		plan, _, err := p.RunPolicy("tsplit", opts, so)
		if (err == nil) != c.fits || plan == nil {
			t.Fatalf("b%d at %d%%: the ladder returned plan %v, error %v", c.batch, c.pct, plan != nil, err)
		}
		if _, err := p.Simulate(plan, sim.Options{Capacity: opts.Capacity, Recompute: sim.LRURecompute}); (err == nil) != c.fits {
			t.Fatalf("b%d at %d%%: the ladder's plan runs: %v, want %v", c.batch, c.pct, err == nil, c.fits)
		}
	}
}

// TestTemplatesKeyOnDevice prepares one model at one configuration
// on two devices from one set: each device gets its own template, so
// the second request does not recycle the first's released slot, and
// each slot is labelled with, and profiled on, its own device as a
// fresh build there is.
func TestTemplatesKeyOnDevice(t *testing.T) {
	ts := new(Templates)
	cfg := models.Config{BatchSize: 32}
	var first *Prepared
	for _, dev := range []device.Device{device.TitanRTX, device.GTX1080Ti} {
		p := prepare(t, ts, "vgg16", cfg, dev, nil)
		if p == first {
			t.Fatalf("%s: Prepare recycled another device's slot", dev.Name)
		}
		first = p
		fr, err := Build("vgg16", cfg, dev)
		if err != nil {
			t.Fatal(err)
		}
		if p.Dev != dev || p.Prof.Total() != fr.Prof.Total() || p.Lv.Peak != fr.Lv.Peak {
			t.Fatalf("%s: slot on %s with ideal %g, peak %d; a fresh build has %g, %d", dev.Name, p.Dev.Name, p.Prof.Total(), p.Lv.Peak, fr.Prof.Total(), fr.Lv.Peak)
		}
		p.Release()
	}
}

// TestSlotPlannerCarriesNoHistory follows one slot's planner across
// rebatches for every zoo model: it plans batch 8, then 24, then 16,
// where its plan and report must equal a fresh planner's at 60 %, and
// at 50, 65 and 80 % at batch 16. A slot of another configuration
// (ParamScale 1.5) belongs to its own template, with its own planner,
// and plans as a fresh one does. The set builds each template once
// and one slot for each: four graphs and two slots.
func TestSlotPlannerCarriesNoHistory(t *testing.T) {
	dev := device.TitanRTX
	for _, model := range models.Names() {
		reg := obs.NewRegistry()
		ts := new(Templates)
		var pl *core.Planner
		for _, c := range []struct {
			batch int
			pcts  []int64
		}{{8, []int64{60}}, {24, []int64{60}}, {16, []int64{50, 65, 80}}} {
			p := prepare(t, ts, model, models.Config{BatchSize: c.batch}, dev, reg)
			for _, pct := range c.pcts {
				matchFresh(t, p, pct, fmt.Sprintf("%s at batch %d", model, c.batch))
			}
			if pl == nil {
				pl = borrowed(p)
			} else if borrowed(p) != pl {
				t.Fatalf("%s at batch %d: the slot planned on another planner", model, c.batch)
			}
			p.Release()
		}

		p := prepare(t, ts, model, models.Config{BatchSize: 16, ParamScale: 1.5}, dev, reg)
		matchFresh(t, p, 65, fmt.Sprintf("%s at param scale 1.5", model))
		if borrowed(p) == pl {
			t.Fatalf("%s: a param-scale-1.5 slot planned on the scale-1 planner", model)
		}
		p.Release()
		if got := reg.Counter(GraphBuilds); got != 4 {
			t.Fatalf("%s: %d graph builds, want 4", model, got)
		}
		if got := reg.Counter(WorkloadSlots); got != 2 {
			t.Fatalf("%s: %d workload slots, want 2", model, got)
		}
	}
}

func prepare(t *testing.T, ts *Templates, model string, cfg models.Config, dev device.Device, rec obs.Recorder) *Prepared {
	t.Helper()
	p, err := ts.Prepare(model, cfg, dev, rec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// borrowed returns the planner p's last Plan used, which its pool
// holds, and leaves it there.
func borrowed(p *Prepared) *core.Planner {
	pl := p.Planners.Get(core.Options{})
	p.Planners.Put(pl)
	return pl
}

// matchFresh plans p through its slot and on a fresh planner, with
// pct % of the memory above what no decision can move (inputs,
// parameters, optimizer state), and fails unless the plans, reports
// and errors are equal.
func matchFresh(t *testing.T, p *Prepared, pct int64, where string) {
	t.Helper()
	var floor int64
	for _, x := range p.G.Tensors {
		if x.Producer == nil {
			floor += x.Bytes()
		}
	}
	opts := core.Options{Capacity: floor + (p.Lv.Peak-floor)*pct/100, FragmentationReserve: -1, CollectReport: true}
	fresh := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, opts)
	wantPlan, wantErr := fresh.Plan()
	want := outcome(t, wantPlan, fresh.Report(), wantErr)
	plan, report, err := p.Plan(opts)
	if err != nil {
		plan = wantPlan // Plan returns no partial plan; the error must still match
	}
	if got := outcome(t, plan, report, err); got != want {
		t.Fatalf("%s at %d%% of peak: slot planner diverged from a fresh one\n--- slot ---\n%s\n--- fresh ---\n%s", where, pct, got, want)
	}
}

func outcome(t *testing.T, plan *core.Plan, report *core.PlanReport, err error) string {
	t.Helper()
	var b bytes.Buffer
	if err := core.ExportJSON(&b, plan); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		// A failed Plan returns no report.
		return b.String() + "error: " + err.Error()
	}
	if err := report.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
