package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/faults"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// This file is the pooled-arena regression gate: a Simulator recycled
// through a SimPool must reproduce a fresh New(...).Run() byte for
// byte — the Result struct, the serialized Chrome trace, and the
// Prometheus metrics text — including under fault injection. Any
// leaked state in Reset/Put shows up here as a diff.

// identityBed plans a memory-pressured tsplit workload (70% of the
// unmanaged peak), the configuration that exercises every simulator
// subsystem (swaps, recomputation, splits, compaction).
func identityBed(t *testing.T, model string, batch int) (*bed, *core.Plan, int64) {
	t.Helper()
	b := mkbed(t, model, models.Config{BatchSize: batch})
	cap := b.lv.Peak * 70 / 100
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev,
		core.Options{Capacity: cap, FragmentationReserve: -1}).Plan()
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	if len(plan.Tensors)+len(plan.Splits) == 0 {
		t.Fatal("the budget left the planner nothing to decide")
	}
	return b, plan, cap
}

// runArtifacts executes one configured simulator and serializes every
// externally visible artifact. An OOM is itself an artifact (some
// fault seeds push a pressured plan over capacity): its message and
// the metrics recorded up to it must replay identically too.
func runArtifacts(t *testing.T, s *Simulator, reg *obs.Registry) (Result, []byte, []byte, string) {
	t.Helper()
	res, err := s.Run()
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	var trace, met bytes.Buffer
	if err := WriteChromeTraceSpans(&trace, res.Timeline, nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&met); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), met.Bytes(), errStr
}

func identityOpts(cap int64, seed uint64) (Options, *obs.Registry) {
	reg := obs.NewRegistry()
	o := Options{
		Capacity:        cap,
		Recompute:       LRURecompute,
		CollectTimeline: true,
		Obs:             reg,
	}
	if seed != 0 {
		o.Faults = faults.New(faults.Config{Seed: seed, Severity: faults.DefaultSeverity})
	}
	return o, reg
}

// TestPooledRunByteIdentity runs three seeds on the pressured vgg16 and
// resnet50 beds, and the fault-free seed on every zoo model at its
// default config (batch 0).
func TestPooledRunByteIdentity(t *testing.T) {
	type identityCase struct {
		model string
		batch int
		seeds []uint64
	}
	// Seed 0 is the fault-free path; the two non-zero seeds follow
	// different injected schedules (noise, bandwidth, capacity hogs).
	cases := []identityCase{
		{"vgg16", 256, []uint64{0, 123, 321}},
		{"resnet50", 256, []uint64{0, 123, 321}},
	}
	for _, model := range models.Names() {
		cases = append(cases, identityCase{model, 0, []uint64{0}})
	}
	for _, tc := range cases {
		b, plan, cap := identityBed(t, tc.model, tc.batch)
		for _, seed := range tc.seeds {
			name := fmt.Sprintf("%s/seed%d", tc.model, seed)
			if tc.batch == 0 {
				name = "default/" + name
			}
			t.Run(name, func(t *testing.T) {
				oF, regF := identityOpts(cap, seed)
				resF, traceF, metF, errF := runArtifacts(t, New(b.g, b.sched, b.lv, plan, b.dev, oF), regF)

				pool := NewSimPool()
				o1, reg1 := identityOpts(cap, seed)
				s1 := pool.Get(b.g, b.sched, b.lv, plan, b.dev, o1)
				res1, trace1, met1, err1 := runArtifacts(t, s1, reg1)
				pool.Put(s1)

				o2, reg2 := identityOpts(cap, seed)
				s2 := pool.Get(b.g, b.sched, b.lv, plan, b.dev, o2)
				if s2 != s1 {
					t.Fatal("pool did not recycle the arena")
				}
				res2, trace2, met2, err2 := runArtifacts(t, s2, reg2)
				pool.Put(s2)

				for i, got := range []string{err1, err2} {
					if errF != got {
						t.Errorf("pooled run %d error diverges:\nfresh:  %q\npooled: %q", i+1, errF, got)
					}
				}
				for i, got := range []Result{res1, res2} {
					if !reflect.DeepEqual(resF, got) {
						t.Errorf("pooled run %d Result diverges:\nfresh:  %+v\npooled: %+v", i+1, resF, got)
					}
				}
				for i, got := range [][]byte{trace1, trace2} {
					if !bytes.Equal(traceF, got) {
						t.Errorf("pooled run %d Chrome trace diverges from fresh", i+1)
					}
				}
				for i, got := range [][]byte{met1, met2} {
					if !bytes.Equal(metF, got) {
						t.Errorf("pooled run %d Prometheus text diverges from fresh", i+1)
					}
				}
			})
		}
	}
}

// TestPooledRetargetsAcrossWorkloads recycles one arena through
// different (graph, plan, capacity) targets and checks each run still
// matches a fresh simulator — the sweep-shard usage pattern.
func TestPooledRetargetsAcrossWorkloads(t *testing.T) {
	bV, planV, capV := identityBed(t, "vgg16", 256)
	bR, planR, capR := identityBed(t, "resnet50", 256)
	pool := NewSimPool()
	for i := 0; i < 2; i++ {
		for _, w := range []struct {
			b    *bed
			plan *core.Plan
			cap  int64
		}{{bV, planV, capV}, {bR, planR, capR}} {
			oF, regF := identityOpts(w.cap, 99)
			resF, traceF, metF, errF := runArtifacts(t, New(w.b.g, w.b.sched, w.b.lv, w.plan, w.b.dev, oF), regF)
			oP, regP := identityOpts(w.cap, 99)
			s := pool.Get(w.b.g, w.b.sched, w.b.lv, w.plan, w.b.dev, oP)
			resP, traceP, metP, errP := runArtifacts(t, s, regP)
			pool.Put(s)
			if errF != errP {
				t.Fatalf("retargeted pooled error diverges:\nfresh:  %q\npooled: %q", errF, errP)
			}
			if !reflect.DeepEqual(resF, resP) {
				t.Fatalf("retargeted pooled Result diverges:\nfresh:  %+v\npooled: %+v", resF, resP)
			}
			if !bytes.Equal(traceF, traceP) || !bytes.Equal(metF, metP) {
				t.Fatal("retargeted pooled artifacts diverge from fresh")
			}
		}
	}
}

// TestPooledSteadyStateAllocs pins the zero-alloc event loop: once the
// arena is warm, a full BERT-Large iteration must stay within the
// issue's 100 allocations/run budget (growth of recycled buffers
// amortizes to ~0; the budget absorbs rare map growth in the pool's
// cold structures).
func TestPooledSteadyStateAllocs(t *testing.T) {
	b := mkbed(t, "bert-large", models.Config{BatchSize: 64})
	plan, err := core.NewPlanner(b.g, b.sched, b.lv, b.prof, b.dev, core.Options{}).Plan()
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	pool := NewSimPool()
	opts := Options{Recompute: LRURecompute}
	iter := func() {
		s := pool.Get(b.g, b.sched, b.lv, plan, b.dev, opts)
		if _, err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		pool.Put(s)
	}
	for i := 0; i < 3; i++ {
		iter() // warm the arena
	}
	if avg := testing.AllocsPerRun(10, iter); avg > 100 {
		t.Fatalf("pooled steady-state allocs/run = %.1f, budget 100", avg)
	}
}
