package main

import (
	"fmt"
	"strconv"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/faults"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/profiler"
	"tsplit/internal/sim"
)

// dev is the device every workload plans for (the paper's Sec. VI-A
// GPU, and the serve layer's default).
var dev = device.TitanRTX

// zooEntry names one model of the request zoo. Graph size spans 112 to
// 1631 scheduled ops, so planner and simulator cost vary 15x across it.
type zooEntry struct {
	Model string
	Batch int
}

var zoo = []zooEntry{
	{"vgg16", 256}, {"vgg19", 256}, {"resnet50", 256}, {"resnet101", 128},
	{"inceptionv4", 128}, {"bert-large", 64}, {"transformer", 64},
}

// coldOffsets are the batch-size offsets of plan_miss's never-prewarmed
// workloads: 13 per model, 91 in all, cycled in order so each one is
// long evicted from the 32-entry workload LRU when its turn returns.
const coldOffsets = 13

// prepared is a workload as the harness builds it, through the same
// public constructors the serve and experiments layers call, with a
// planner pool and a simulator pool of its own as the serve layer keeps
// them.
type prepared struct {
	zooEntry
	G        *graph.Graph
	Sched    *graph.Schedule
	Lv       *graph.Liveness
	Prof     *profiler.Profile
	Planners *core.PlannerPool
	Sims     *sim.SimPool
}

func prepare(e zooEntry) (*prepared, error) {
	g, err := models.Build(e.Model, models.Config{BatchSize: e.Batch})
	if err != nil {
		return nil, fmt.Errorf("build %s b%d: %w", e.Model, e.Batch, err)
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		return nil, fmt.Errorf("schedule %s b%d: %w", e.Model, e.Batch, err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	prof := profiler.New(dev, sched)
	return &prepared{
		zooEntry: e, G: g, Sched: sched, Lv: lv, Prof: prof,
		Planners: core.NewPlannerPool(g, sched, lv, prof, dev),
		Sims:     sim.NewSimPool(),
	}, nil
}

func prepareAll(entries []zooEntry) ([]*prepared, error) {
	out := make([]*prepared, len(entries))
	for i, e := range entries {
		p, err := prepare(e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// coldEntries lists plan_miss's never-prewarmed workloads, model
// fastest-varying so consecutive cold requests differ in graph size.
func coldEntries() []zooEntry {
	out := make([]zooEntry, 0, len(zoo)*coldOffsets)
	for k := 1; k <= coldOffsets; k++ {
		for _, e := range zoo {
			out = append(out, zooEntry{e.Model, e.Batch + k})
		}
	}
	return out
}

// request is one generated operation: a workload and the capacity the
// plan must fit. The program under test sees only body().
type request struct {
	W        *prepared
	Capacity int64
	Cold     bool // names a workload the server has not prepared
}

func (r request) body() []byte {
	b := make([]byte, 0, 96)
	b = append(b, `{"model":"`...)
	b = append(b, r.W.Model...)
	b = append(b, `","config":{"batch_size":`...)
	b = strconv.AppendInt(b, int64(r.W.Batch), 10)
	b = append(b, `},"options":{"capacity_bytes":`...)
	b = strconv.AppendInt(b, r.Capacity, 10)
	return append(b, `}}`...)
}

// tagBits low bits of a capacity carry the request or key index, which
// makes every plan key distinct without moving the budget by more than
// 16 MiB of the 4-30 GiB the zoo needs.
const tagBits = 24

func tagged(capacity int64, tag int) int64 {
	return capacity>>tagBits<<tagBits | int64(tag)&(1<<tagBits-1)
}

// strata is how many equal slices the capacity-fraction range is cut
// into. Requests cycle through a seeded shuffle of every (model,
// stratum) pair, so any 112 consecutive requests carry the same model
// and pressure mix whatever the seed; the seed decides the order and
// where in its stratum each fraction falls.
const strata = 16

type draw struct {
	model, stratum int
	jitter         float64
}

// mix generates a workload's requests from the seed.
type mix struct {
	zoo    []*prepared
	cold   []*prepared
	draws  []draw
	lo, hi float64
}

func newMix(seed uint64, zoo []*prepared, lo, hi float64) *mix {
	src := faults.NewSource(seed)
	draws := make([]draw, 0, len(zoo)*strata)
	for m := range zoo {
		for s := 0; s < strata; s++ {
			draws = append(draws, draw{m, s, src.Float64()})
		}
	}
	for i := len(draws) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		draws[i], draws[j] = draws[j], draws[i]
	}
	return &mix{zoo: zoo, draws: draws, lo: lo, hi: hi}
}

// fraction of the unmanaged peak that draw d allows, shift strata
// higher (the peak workload's redraw of an infeasible key).
func (m *mix) fraction(d draw, shift int) float64 {
	f := m.lo + (float64(d.stratum+shift)+d.jitter)/strata*(m.hi-m.lo)
	if f > m.hi {
		f = m.hi
	}
	return f
}

// warm is the i-th request against a prewarmed zoo workload, its plan
// key made unique by i.
func (m *mix) warm(i int) request {
	return m.redrawn(i, 0)
}

func (m *mix) redrawn(i, shift int) request {
	d := m.draws[i%len(m.draws)]
	w := m.zoo[d.model]
	return request{W: w, Capacity: tagged(int64(m.fraction(d, shift)*float64(w.Lv.Peak)), i)}
}

// miss is plan_miss's i-th request: 7 in 8 warm, every 8th against the
// next never-prewarmed workload in the cold cycle. Each class walks the
// draws with its own counter, so both see every (model, stratum) pair.
func (m *mix) miss(i int) request {
	if i%8 != 7 || len(m.cold) == 0 {
		r := m.warm(i - i/8)
		r.Capacity = tagged(r.Capacity, i)
		return r
	}
	j := i / 8
	w := m.cold[j%len(m.cold)]
	return request{W: w, Capacity: tagged(int64(m.fraction(m.draws[j%len(m.draws)], 0)*float64(w.Lv.Peak)), i), Cold: true}
}

// order is a seeded permutation of [0, n): the sequence in which the
// population workloads visit their keys, each key equally often.
func order(seed uint64, n int) []int {
	src := faults.NewSource(seed ^ 0x9e3779b97f4a7c15)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
