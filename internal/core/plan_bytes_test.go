package core_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
)

// TestPlanBytesGolden pins the two renderings of a plan — Describe and
// AppendPlanJSON — for every zoo model under tsplit at 50, 65 and 80 %
// of the unmanaged peak (one pooled planner per model, partial plans of
// failed runs included) and under every baseline policy. Every plan is
// produced before any is hashed, so a returned plan that shared storage
// with its planner's next run would show here. Rerun with -update only
// when a change means to move the bytes.
func TestPlanBytesGolden(t *testing.T) {
	const path = "testdata/plan_bytes.golden"
	type rendered struct {
		label string
		err   error
		plan  *core.Plan
	}
	var runs []rendered
	for _, model := range models.Names() {
		g, err := models.Build(model, models.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := graph.BuildSchedule(g)
		if err != nil {
			t.Fatal(err)
		}
		lv := graph.AnalyzeLiveness(g, sched)
		prof := profiler.New(device.TitanRTX, sched)
		pp := core.NewPlannerPool(g, sched, lv, prof, device.TitanRTX)
		for _, pct := range []int64{50, 65, 80} {
			pl := pp.Get(core.Options{Capacity: lv.Peak * pct / 100, FragmentationReserve: -1})
			plan, err := pl.Plan()
			pp.Put(pl)
			runs = append(runs, rendered{fmt.Sprintf("%s tsplit %d%%", model, pct), err, plan})
		}
		in := baselines.Inputs{G: g, Sched: sched, Lv: lv, Prof: prof, Dev: device.TitanRTX}
		for _, policy := range baselines.Names {
			plan, err := baselines.Registry[policy](in)
			runs = append(runs, rendered{model + " " + policy, err, plan})
		}
	}
	var b strings.Builder
	for _, r := range runs {
		if r.plan == nil {
			fmt.Fprintf(&b, "%s ok=%v no plan\n", r.label, r.err == nil)
			continue
		}
		fmt.Fprintf(&b, "%s ok=%v describe=%x json=%x\n", r.label, r.err == nil,
			sha256.Sum256([]byte(r.plan.Describe())), sha256.Sum256(core.AppendPlanJSON(nil, r.plan)))
	}
	got := b.String()
	// The -update flag is defined by the package's internal tests, which
	// share this test binary.
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d diverges:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
