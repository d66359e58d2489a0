// Acceptance test for the postmortem pipeline: the planner phase
// spans, metrics and flight events recorded during cold bert-large
// Plan() calls must survive the dump → file bytes → Diagnose round
// trip with the phase tree intact.
package tsplit_test

import (
	"bytes"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
)

func TestDoctorPlanPhaseBreakdown(t *testing.T) {
	p, err := prep.Build("bert-large", models.Config{BatchSize: 64}, device.TitanRTX)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	const rounds = 5
	tr := obs.NewTracer(nil)
	reg := obs.NewRegistry()
	fl := obs.NewFlight(0, nil)
	opts := core.Options{
		Capacity: p.Lv.Peak * 58 / 100, FragmentationReserve: -1,
		Obs: reg, Trace: tr, Flight: fl,
	}
	for r := 0; r < rounds; r++ {
		if _, err := core.NewPlanner(p.G, p.Sched, p.Lv, p.Prof, p.Dev, opts).Plan(); err != nil {
			t.Fatalf("plan %d: %v", r, err)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteDump(&buf, &obs.Dump{
		Reason:  "cold plan phases",
		Events:  fl.Events(),
		Metrics: reg.Snapshot(),
		Spans:   tr.Tree(),
	}); err != nil {
		t.Fatalf("write dump: %v", err)
	}
	dump, err := obs.ReadDump(&buf)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	diag := obs.Diagnose(dump, nil)

	phases := map[string]obs.PhaseStat{}
	for _, ph := range diag.Phases {
		phases[ph.Name] = ph
	}
	root, ok := phases["planner.plan"]
	if !ok || root.Count != rounds || root.Open != 0 {
		t.Fatalf("planner.plan phase missing or miscounted: %+v", diag.Phases)
	}
	for _, name := range []string{"planner.bottleneck", "planner.fold", "planner.finalize", "planner.index.build"} {
		ph, ok := phases[name]
		if !ok || ph.Count < rounds {
			t.Fatalf("phase %q missing or under-counted in the breakdown: %+v", name, diag.Phases)
		}
		if ph.TotalMicros > root.TotalMicros {
			t.Fatalf("phase %q total %dµs exceeds its root's %dµs", name, ph.TotalMicros, root.TotalMicros)
		}
	}
	var decisions int
	for _, ec := range diag.EventCounts {
		if ec.Kind == "plan.decision" {
			decisions = ec.Count
		}
	}
	if decisions == 0 {
		t.Fatalf("no plan.decision events survived the round trip: %+v", diag.EventCounts)
	}
}
