package profiler

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func prof(t *testing.T) *Profile {
	t.Helper()
	g := graph.New()
	x := g.Input("x", tensor.NewShape(8, 64), tensor.Float32)
	labels := g.Input("l", tensor.NewShape(8), tensor.Int32)
	h := g.ReLU("r1", g.Dense("fc1", x, 128))
	h = g.ReLU("r2", g.Dense("fc2", h, 128))
	logits := g.Dense("fc3", h, 10)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(graph.SGD); err != nil {
		t.Fatal(err)
	}
	s, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	return New(device.TitanRTX, s)
}

func TestTotalIsSumOfOps(t *testing.T) {
	p := prof(t)
	var sum float64
	for _, d := range p.T {
		sum += d
	}
	if math.Abs(sum-p.Total()) > 1e-12 {
		t.Fatalf("total %g != sum %g", p.Total(), sum)
	}
}

func TestSpan(t *testing.T) {
	p := prof(t)
	if got := p.Span(0, len(p.T)-1); math.Abs(got-p.Total()) > 1e-12 {
		t.Fatalf("full span %g != total %g", got, p.Total())
	}
	if p.Span(3, 2) != 0 {
		t.Fatal("empty span must be 0")
	}
	if got := p.Span(-5, 2); math.Abs(got-p.Span(0, 2)) > 1e-15 {
		t.Fatal("span must clamp below")
	}
	if got := p.Span(2, 9999); math.Abs(got-p.Span(2, len(p.T)-1)) > 1e-15 {
		t.Fatal("span must clamp above")
	}
}

func TestOccupancyFreeTimeFull(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	if got := o.FreeTime(0, len(p.T)-1); math.Abs(got-p.Total()) > 1e-12 {
		t.Fatalf("empty occupancy free time %g != %g", got, p.Total())
	}
}

func TestReserveReducesFreeTime(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	free := o.FreeTime(0, 5)
	stall := o.Reserve(free/2, 0, 5)
	if stall != 0 {
		t.Fatalf("stall %g for half the window", stall)
	}
	after := o.FreeTime(0, 5)
	if math.Abs(after-free/2) > 1e-12 {
		t.Fatalf("free time %g, want %g", after, free/2)
	}
}

func TestReserveOverflowsToStall(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	free := o.FreeTime(2, 4)
	if stall := o.Reserve(free+0.5, 2, 4); math.Abs(stall-0.5) > 1e-9 {
		t.Fatalf("stall %g, want 0.5", stall)
	}
	if o.FreeTime(2, 4) > 1e-12 {
		t.Fatal("window should be saturated")
	}
}

func TestReserveBackIsBackLoaded(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	// Reserve just the last op's duration: start must be the last index.
	last := len(p.T) - 1
	start, stall := o.ReserveBack(p.T[last]*0.9, 0, last)
	if stall != 0 {
		t.Fatalf("unexpected stall %g", stall)
	}
	if start != last {
		t.Fatalf("start %d, want %d (back-loaded)", start, last)
	}
}

func TestReserveBackLeftover(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	total := o.FreeTime(0, len(p.T)-1)
	start, stall := o.ReserveBack(total+1, 0, len(p.T)-1)
	if start != 0 {
		t.Fatalf("saturating reserve should reach index 0, got %d", start)
	}
	if math.Abs(stall-1) > 1e-9 {
		t.Fatalf("stall %g, want 1", stall)
	}
}

func TestStall(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	free := o.FreeTime(1, 3)
	if o.Stall(free, 1, 3) != 0 {
		t.Fatal("exactly-fitting transfer should not stall")
	}
	if got := o.Stall(free+2, 1, 3); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stall %g, want 2", got)
	}
}

func TestWindowStart(t *testing.T) {
	p := prof(t)
	q := len(p.T)
	s := p.WindowStart(q, p.Total()/2)
	if p.Span(s, q-1) < p.Total()/2 {
		t.Fatal("window does not cover the duration")
	}
	if s+1 < q && p.Span(s+1, q-1) >= p.Total()/2 {
		t.Fatal("window start not maximal")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := prof(t)
	o := NewOccupancy(p)
	c := o.Clone()
	o.Reserve(p.Total(), 0, len(p.T)-1)
	if math.Abs(c.FreeTime(0, len(p.T)-1)-p.Total()) > 1e-12 {
		t.Fatal("clone affected by original's reservation")
	}
}

// mlpProf profiles an MLP of the given depth: deeper nets give longer
// schedules, spanning more occupancy blocks.
func mlpProf(t *testing.T, depth int) *Profile {
	t.Helper()
	g := graph.New()
	h := g.Input("x", tensor.NewShape(8, 64), tensor.Float32)
	labels := g.Input("l", tensor.NewShape(8), tensor.Int32)
	for i := 0; i < depth; i++ {
		h = g.ReLU(fmt.Sprintf("r%d", i), g.Dense(fmt.Sprintf("fc%d", i), h, 64+16*i))
	}
	g.CrossEntropyLoss("loss", g.Dense("out", h, 10), labels)
	if err := g.Differentiate(graph.SGD); err != nil {
		t.Fatal(err)
	}
	s, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	return New(device.TitanRTX, s)
}

// occupancyTrace books a fixed script of reservations and returns
// every answer the tracker gives along the way.
func occupancyTrace(o *Occupancy, p *Profile) []float64 {
	n := len(p.T)
	var out []float64
	for k, frac := range []float64{0.3, 0.05, 0.7, 0.2} {
		lo, hi := k*n/8, n-1-k*n/16
		out = append(out, o.Reserve(frac*p.Span(lo, hi), lo, hi))
		start, stall := o.ReserveBack(frac*p.Span(lo, hi), lo, hi)
		out = append(out, float64(start), stall)
		for u := -1; u < n; u++ {
			out = append(out, o.FreeTime(0, u), o.Stall(p.Total()/4, u, n-1))
		}
	}
	return out
}

// TestRetargetMatchesNew: a tracker retargeted to another profile,
// shorter or longer than its own and after reservations on it, answers
// exactly as a new tracker for that profile does.
func TestRetargetMatchesNew(t *testing.T) {
	short, long := mlpProf(t, 2), mlpProf(t, 40)
	if len(long.T) <= 2<<occBlockShift {
		t.Fatalf("the long profile has %d ops, want several blocks", len(long.T))
	}
	o := NewOccupancy(short)
	occupancyTrace(o, short)
	for _, p := range []*Profile{long, short, long, long} {
		o.Retarget(p)
		if got, want := occupancyTrace(o, p), occupancyTrace(NewOccupancy(p), p); !slices.Equal(got, want) {
			t.Fatalf("retargeted to %d ops: answers differ from a new tracker's", len(p.T))
		}
	}
}
