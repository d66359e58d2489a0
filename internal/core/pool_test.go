package core

import (
	"testing"

	"tsplit/internal/models"
)

// TestPlannerPoolReuseIdentical checks the pool's core contract on
// every zoo model at a tight budget (58% of the unmanaged peak, the
// default config): a recycled planner produces byte-identical plans to
// a fresh one, round after round.
func TestPlannerPoolReuseIdentical(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			tb := newTestbed(t, model, models.Config{})
			opts := Options{Capacity: tb.lv.Peak * 58 / 100, FragmentationReserve: -1}

			pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
			fresh, err := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev, opts).Plan()
			if err != nil {
				t.Fatalf("fresh plan: %v", err)
			}
			if len(fresh.Tensors)+len(fresh.Splits) == 0 {
				t.Fatal("the budget left the planner nothing to decide")
			}
			want := fresh.Describe()

			var last *Planner
			for round := 0; round < 4; round++ {
				pl := pp.Get(opts)
				if round > 0 && pl != last {
					t.Fatalf("round %d: pool did not recycle the planner", round)
				}
				plan, err := pl.Plan()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if got := plan.Describe(); got != want {
					t.Errorf("round %d: pooled plan diverged from fresh plan\n--- pooled ---\n%s--- fresh ---\n%s", round, got, want)
				}
				last = pl
				pp.Put(pl)
				if pp.Size() != 1 {
					t.Fatalf("round %d: pool size %d, want 1", round, pp.Size())
				}
			}
		})
	}
}

// TestPlannerPoolDropsForeign checks that planners built for another
// workload are dropped instead of pooled.
func TestPlannerPoolDropsForeign(t *testing.T) {
	a := newTestbed(t, "vgg16", models.Config{BatchSize: 8})
	b := newTestbed(t, "resnet50", models.Config{BatchSize: 8})
	pp := NewPlannerPool(a.g, a.sched, a.lv, a.prof, a.dev)

	pp.Put(NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, Options{}))
	if pp.Size() != 0 {
		t.Fatalf("pool accepted a foreign planner (size %d)", pp.Size())
	}
	pp.Put(nil)
	if pp.Size() != 0 {
		t.Fatalf("pool accepted nil (size %d)", pp.Size())
	}
	pp.Put(NewPlanner(a.g, a.sched, a.lv, a.prof, a.dev, Options{}))
	if pp.Size() != 1 {
		t.Fatalf("pool rejected its own planner (size %d)", pp.Size())
	}
}

// TestPlannerPoolSteadyStateAllocs pins the arena-reuse goal: after
// the first run warms the pool, a pooled Plan() call stays under 100
// allocations (the ISSUE budget; the seed planner spent 7,387 on
// BERT-Large).
func TestPlannerPoolSteadyStateAllocs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	_, peak, _ := NewMemSim(tb.g, tb.sched, tb.lv).Curve(NewPlan("none", tb.dev))
	opts := Options{Capacity: peak * 60 / 100, FragmentationReserve: -1}

	pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
	pl := pp.Get(opts)
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("warm-up plan: %v", err)
	}
	pp.Put(pl)

	allocs := testing.AllocsPerRun(10, func() {
		pl := pp.Get(opts)
		if _, err := pl.Plan(); err != nil {
			t.Fatalf("pooled plan: %v", err)
		}
		pp.Put(pl)
	})
	if allocs > 100 {
		t.Errorf("steady-state pooled Plan() allocates %.0f times, want <= 100", allocs)
	}
	t.Logf("steady-state pooled Plan(): %.0f allocs", allocs)
}

// TestPlannerRepeatPlanAllocs pins a non-pooled planner's steady
// state: repeated Plan() calls on one planner, with no Put between
// them, pre-size the plan's maps from the previous run's counts. A lost
// size hint shows up here as map-growth allocations.
func TestPlannerRepeatPlanAllocs(t *testing.T) {
	tb := newTestbed(t, "bert-large", models.Config{BatchSize: 8})
	_, peak, _ := NewMemSim(tb.g, tb.sched, tb.lv).Curve(NewPlan("none", tb.dev))
	pl := NewPlanner(tb.g, tb.sched, tb.lv, tb.prof, tb.dev,
		Options{Capacity: peak * 60 / 100, FragmentationReserve: -1})
	if _, err := pl.Plan(); err != nil {
		t.Fatalf("warm-up plan: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pl.Plan(); err != nil {
			t.Fatalf("repeat plan: %v", err)
		}
	})
	if allocs > 9 {
		t.Errorf("repeated Plan() allocates %.0f times, want <= 9", allocs)
	}
}
