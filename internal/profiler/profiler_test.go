package profiler

import (
	"math"
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
