package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/workload"
)

// TestPlansAreIDOrdered holds every plan producer to the Plan
// contract: each decision list is in strictly ascending ID order with
// no nil tensor or op, an empty list is nil, and Plan.Tensor and
// SplitFor answer for every ID of the graph what a linear scan of the
// lists finds. The producers are fresh and pooled planners on every
// zoo model and 16 generated graphs at four budgets — the tightest
// returns the partial plan of an ErrInfeasible run — and every
// baseline policy. A pooled plan must also equal the fresh one.
func TestPlansAreIDOrdered(t *testing.T) {
	type bed struct {
		name string
		g    *graph.Graph
	}
	var beds []bed
	for _, model := range models.Names() {
		g, err := models.Build(model, models.Config{})
		if err != nil {
			t.Fatal(err)
		}
		beds = append(beds, bed{model, g})
	}
	for seed := uint64(1); seed <= 16; seed++ {
		beds = append(beds, bed{fmt.Sprintf("rand/%d", seed), workload.RandGraph(seed)})
	}
	partial := 0
	for _, b := range beds {
		sched, err := graph.BuildSchedule(b.g)
		if err != nil {
			t.Fatal(err)
		}
		lv := graph.AnalyzeLiveness(b.g, sched)
		prof := profiler.New(device.TitanRTX, sched)
		pp := core.NewPlannerPool(b.g, sched, lv, prof, device.TitanRTX)
		for _, pct := range []int64{5, 50, 65, 80} {
			opts := core.Options{Capacity: lv.Peak * pct / 100, FragmentationReserve: -1}
			label := fmt.Sprintf("%s tsplit %d%%", b.name, pct)
			fresh, ferr := core.NewPlanner(b.g, sched, lv, prof, device.TitanRTX, opts).Plan()
			pl := pp.Get(opts)
			pooled, perr := pl.Plan()
			pp.Put(pl)
			if errors.Is(ferr, core.ErrInfeasible) {
				partial++
			}
			checkIDOrdered(t, label+" fresh", fresh, b.g)
			checkIDOrdered(t, label+" pooled", pooled, b.g)
			if (ferr == nil) != (perr == nil) || !reflect.DeepEqual(fresh, pooled) {
				t.Errorf("%s: pooled plan (err %v) differs from fresh (err %v)", label, perr, ferr)
			}
		}
		in := baselines.Inputs{G: b.g, Sched: sched, Lv: lv, Prof: prof, Dev: device.TitanRTX}
		for _, policy := range baselines.Names {
			if plan, err := baselines.Registry[policy](in); err == nil {
				checkIDOrdered(t, b.name+" "+policy, plan, b.g)
			}
		}
	}
	if partial == 0 {
		t.Fatal("no run returned the partial plan of an infeasible budget")
	}
}

// checkIDOrdered checks one plan against the Plan contract.
func checkIDOrdered(t *testing.T, label string, p *core.Plan, g *graph.Graph) {
	t.Helper()
	if p == nil {
		t.Errorf("%s: no plan", label)
		return
	}
	if (p.Tensors != nil && len(p.Tensors) == 0) || (p.Splits != nil && len(p.Splits) == 0) {
		t.Errorf("%s: an empty decision list is not nil", label)
	}
	tensorAt := make([]*core.TensorPlan, len(g.Tensors))
	for k := range p.Tensors {
		tp := &p.Tensors[k]
		if tp.Tensor == nil {
			t.Errorf("%s: Tensors[%d] has a nil tensor", label, k)
			return
		}
		if k > 0 && p.Tensors[k-1].Tensor.ID >= tp.Tensor.ID {
			t.Errorf("%s: Tensors[%d] has ID %d after ID %d", label, k, tp.Tensor.ID, p.Tensors[k-1].Tensor.ID)
		}
		tensorAt[tp.Tensor.ID] = tp
	}
	splitAt := make([]*core.OpSplit, len(g.Ops))
	for k := range p.Splits {
		sp := &p.Splits[k]
		if sp.Op == nil {
			t.Errorf("%s: Splits[%d] has a nil op", label, k)
			return
		}
		if k > 0 && p.Splits[k-1].Op.ID >= sp.Op.ID {
			t.Errorf("%s: Splits[%d] has ID %d after ID %d", label, k, sp.Op.ID, p.Splits[k-1].Op.ID)
		}
		splitAt[sp.Op.ID] = sp
	}
	for _, x := range g.Tensors {
		got, ok := p.Tensor(x.ID)
		if want := tensorAt[x.ID]; ok != (want != nil) || (ok && !reflect.DeepEqual(got, *want)) {
			t.Errorf("%s: Tensor(%d) = %v, %v; the list holds %v", label, x.ID, got, ok, want)
		}
	}
	for _, op := range g.Ops {
		got, ok := p.SplitFor(op)
		if want := splitAt[op.ID]; ok != (want != nil) || (ok && !reflect.DeepEqual(got, *want)) {
			t.Errorf("%s: SplitFor(%s) = %v, %v; the list holds %v", label, op.Name, got, ok, want)
		}
	}
}
