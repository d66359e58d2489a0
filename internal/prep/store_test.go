package prep

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/sim"
)

// runOutcome is what a RunPolicy call gives its caller, with the plan
// reduced to the digests of its two renderings, a copy of its chain
// transients (which only the memory curve reads) and whether each list
// is nil, taken before anything else runs.
type runOutcome struct {
	describe, json [sha256.Size]byte
	chain          []int64
	nilLists       [2]bool
	res            sim.Result
	err            string
}

func outcomeOf(plan *core.Plan, res sim.Result, err error) runOutcome {
	o := runOutcome{res: res}
	if plan != nil {
		o.describe = sha256.Sum256([]byte(plan.Describe()))
		o.json = sha256.Sum256(core.AppendPlanJSON(nil, plan))
		o.chain = slices.Clone(plan.ChainTransients)
		o.nilLists = [2]bool{plan.Tensors == nil, plan.Splits == nil}
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// trail spells the reserve ladder RunPolicy climbs for policy on p:
// one letter a rung, P for a plan failure, O for a plan whose trial
// run fails, S for the plan that runs.
func trail(p *Prepared, policy string) string {
	pol, err := Lookup(policy)
	if err != nil {
		panic(err)
	}
	reserves := reserveLadder(p.Dev.MemBytes)
	if !pol.Planner {
		reserves = reserves[:1]
	}
	var b strings.Builder
	for _, rv := range reserves {
		plan, _, err := p.PlanPolicy(policy, core.Options{FragmentationReserve: rv})
		if err != nil {
			b.WriteByte('P')
			continue
		}
		if _, err := p.Simulate(plan, sim.Options{Recompute: pol.Recompute}); err != nil {
			b.WriteByte('O')
			continue
		}
		b.WriteByte('S')
		break
	}
	return b.String()
}

// recyclePoints are Table IV probe points around each model's TSPLIT
// frontier on the Titan RTX, picked for the ladders TSPLIT climbs
// there: a rung-0 success, all five rungs failing in the planner, a
// failed trial run followed by plan failures (the returned plan is an
// earlier rung's), and a rescue on the last rung.
var recyclePoints = []struct {
	model string
	batch int
}{
	{"vgg16", 420}, {"vgg16", 452}, {"vgg16", 461},
	{"vgg19", 445}, {"vgg19", 462},
	{"resnet50", 794}, {"resnet50", 830}, {"resnet50", 835},
	{"resnet101", 777}, {"resnet101", 785}, {"resnet101", 1050},
	{"inceptionv4", 675}, {"inceptionv4", 684},
	{"transformer", 1452}, {"transformer", 1456},
}

// TestRecycledRunsMatchFresh pins RunPolicyIn to RunPolicy: at every
// probe point, every policy run with plans built in one RunStore,
// shared by all of them in turn so stale content from any earlier
// policy would show, gives the result, the error and the plan bytes
// (Describe and JSON, the last plan made when every rung fails) a
// fresh run gives.
func TestRecycledRunsMatchFresh(t *testing.T) {
	ts := NewTemplates()
	st := new(RunStore)
	trails := map[string]bool{}
	for _, pt := range recyclePoints {
		p, err := ts.Prepare(pt.model, models.Config{BatchSize: pt.batch}, device.TitanRTX, nil)
		if err != nil {
			t.Fatal(err)
		}
		trails[trail(p, "tsplit")] = true
		for _, pol := range Policies {
			want := outcomeOf(p.RunPolicy(pol.Name, core.Options{}, sim.Options{}))
			plan, res, err := p.RunPolicyIn(pol.Name, core.Options{}, sim.Options{}, st)
			if got := outcomeOf(plan, res, err); !reflect.DeepEqual(got, want) {
				t.Errorf("%s b%d %s: recycled run differs from a fresh one: error %q, want %q; plan bytes equal: %v",
					pt.model, pt.batch, pol.Name, got.err, want.err, got.describe == want.describe && got.json == want.json)
			}
			if plan != nil && len(plan.Tensors) > 0 && err == nil && !pol.Planner {
				// A baseline's one rung plans in the same half of st
				// every time, so its next plan overwrites this one.
				again, _, _ := p.RunPolicyIn(pol.Name, core.Options{}, sim.Options{}, st)
				if &again.Tensors[0] != &plan.Tensors[0] {
					t.Errorf("%s b%d %s: a second run did not reuse the store", pt.model, pt.batch, pol.Name)
				}
			}
		}
		p.Release()
	}
	// The points must keep covering the ladders the store has to
	// survive; a planner change that moves a frontier shows here.
	covered := func(name string, ok func(string) bool) {
		for tr := range trails {
			if ok(tr) {
				return
			}
		}
		t.Errorf("no probe point's tsplit ladder is %s (have %v); pick new points", name, trails)
	}
	covered("a rung-0 success", func(tr string) bool { return tr == "S" })
	covered("five plan failures", func(tr string) bool { return tr == "PPPPP" })
	covered("a failed trial run, then plan failures to the end", func(tr string) bool {
		return len(tr) == 5 && strings.Contains(tr, "O") && strings.HasSuffix(tr, "P")
	})
	covered("a failed trial run, then a plan failure, then a failed trial run", func(tr string) bool {
		return strings.Contains(tr, "OP") && strings.HasSuffix(tr, "O")
	})
	covered("a rescue on the last rung", func(tr string) bool { return len(tr) == 5 && strings.HasSuffix(tr, "S") })
}

// TestRecycledRunsShareAPrepared runs every policy on one Prepared
// from two goroutines at once (run under -race), each with a RunStore
// of its own: each gets the fresh runs' results and plan bytes.
func TestRecycledRunsShareAPrepared(t *testing.T) {
	p, err := Build("vgg16", models.Config{BatchSize: 452}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]runOutcome, len(Policies))
	for i, pol := range Policies {
		want[i] = outcomeOf(p.RunPolicy(pol.Name, core.Options{}, sim.Options{}))
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := new(RunStore)
			for k := range Policies {
				i := (k + g*len(Policies)/2) % len(Policies) // the two start apart
				if got := outcomeOf(p.RunPolicyIn(Policies[i].Name, core.Options{}, sim.Options{}, st)); !reflect.DeepEqual(got, want[i]) {
					errs[g] = fmt.Errorf("goroutine %d: %s differs from its fresh run", g, Policies[i].Name)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
