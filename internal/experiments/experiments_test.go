package experiments

import (
	"strings"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/models"
)

func TestRunPolicyBase(t *testing.T) {
	p, err := prepare("vgg16", models.Config{BatchSize: 16}, device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	r := RunPolicy(p, "base")
	if !r.Feasible {
		t.Fatalf("base infeasible: %s", r.Reason)
	}
	if r.Throughput(16) <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunPolicyUnknown(t *testing.T) {
	p, _ := prepare("vgg16", models.Config{BatchSize: 8}, device.TitanRTX)
	r := RunPolicy(p, "nope")
	if r.Feasible || r.Reason == "" {
		t.Fatal("unknown policy must be infeasible with a reason")
	}
}

func TestFeasibleRespectsCapacity(t *testing.T) {
	feasible := func(dev device.Device) bool {
		p, err := prepare("vgg16", models.Config{BatchSize: 64}, dev)
		if err != nil {
			t.Fatal(err)
		}
		return RunPolicy(p, "base").Feasible
	}
	if !feasible(device.TitanRTX) {
		t.Fatal("vgg16 batch 64 should fit a 24 GB device")
	}
	tiny := device.TitanRTX
	tiny.MemBytes = 1 << 30
	if feasible(tiny) {
		t.Fatal("vgg16 batch 64 cannot fit 1 GiB unmanaged")
	}
}

// searchMax is the closed-loop form of the max-scale search and the
// oracle for scaleCursor: it returns the largest n in [0, hi] with
// feasible(n), probing exponentially from 1 and binary-searching the
// failing octave.
func searchMax(feasible func(int) bool, hi int) int {
	if !feasible(1) {
		return 0
	}
	lo := 1
	probe := 2
	for probe <= hi && feasible(probe) {
		lo = probe
		probe *= 2
	}
	up := probe
	if up > hi {
		up = hi + 1
	}
	// Invariant: feasible(lo), !feasible(up) (or up == hi+1).
	for lo+1 < up {
		mid := (lo + up) / 2
		if feasible(mid) {
			lo = mid
		} else {
			up = mid
		}
	}
	return lo
}

func TestSearchMax(t *testing.T) {
	// Monotone predicate: feasible up to 37.
	got := searchMax(func(n int) bool { return n <= 37 }, 256)
	if got != 37 {
		t.Fatalf("searchMax = %d, want 37", got)
	}
	if searchMax(func(n int) bool { return false }, 256) != 0 {
		t.Fatal("all-infeasible should be 0")
	}
	if searchMax(func(n int) bool { return true }, 64) != 64 {
		t.Fatal("all-feasible should hit the bound")
	}
}

func TestMaxSampleScaleOrdering(t *testing.T) {
	// On a deliberately small device the policy ordering must hold:
	// tsplit >= superneurons >= base.
	small := device.TitanRTX
	small.MemBytes = 6 << 30
	base := MaxSampleScale("vgg16", "base", small, models.Config{}, 256)
	sn := MaxSampleScale("vgg16", "superneurons", small, models.Config{}, 256)
	ts := MaxSampleScale("vgg16", "tsplit", small, models.Config{}, 256)
	if base <= 0 {
		t.Fatal("base cannot train at all")
	}
	if sn < base {
		t.Fatalf("superneurons (%d) below base (%d)", sn, base)
	}
	if ts < sn {
		t.Fatalf("tsplit (%d) below superneurons (%d)", ts, sn)
	}
}

func TestTable2Renders(t *testing.T) {
	buckets, err := Table2TensorSizes(8, 128)
	if err != nil {
		t.Fatal(err)
	}
	var pct float64
	for _, b := range buckets {
		pct += b.Percent
	}
	if pct < 99.9 || pct > 100.1 {
		t.Fatalf("bucket percentages sum to %g", pct)
	}
	if !strings.Contains(RenderTable2(buckets), "> 500MB") {
		t.Fatal("render missing buckets")
	}
}

func TestFig5Curves(t *testing.T) {
	curves, err := Fig5OpSplitCurves(device.TitanRTX, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) == 0 {
		t.Fatal("no curves")
	}
	for _, c := range curves {
		for i := 1; i < len(c.Times); i++ {
			if c.Times[i] < c.Times[0]*0.999 {
				t.Fatalf("%s: splitting made it faster?", c.Op)
			}
		}
	}
	if RenderFig5(curves) == "" {
		t.Fatal("empty render")
	}
}

func TestFig1Grid(t *testing.T) {
	grid, caps, err := Fig1BERTMemoryScale()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) == 0 || len(caps) == 0 {
		t.Fatal("empty fig1")
	}
	// Memory grows with batch at fixed scale.
	var b4, b64 float64
	for _, pt := range grid {
		if pt.ParamScale == 1.0 && pt.Batch == 4 {
			b4 = pt.PeakGiB
		}
		if pt.ParamScale == 1.0 && pt.Batch == 64 {
			b64 = pt.PeakGiB
		}
	}
	if b64 <= b4 {
		t.Fatal("memory must grow with the sample scale")
	}
	if RenderFig1(grid, caps) == "" {
		t.Fatal("empty render")
	}
}

func TestFig2aTimeline(t *testing.T) {
	fig, err := Fig2aMemoryTimeline(device.TitanRTX, 192)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lines["superneurons"]) == 0 || len(fig.Lines["tsplit"]) == 0 {
		t.Fatal("missing timelines")
	}
	if fig.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestScaleTableRender(t *testing.T) {
	tbl := &ScaleTable{
		Title:    "test",
		Models:   []string{"m"},
		Policies: []string{"a", "b"},
		Cells:    map[string]map[string]int{"m": {"a": 3, "b": -1}},
	}
	out := tbl.Render()
	if !strings.Contains(out, "3") || !strings.Contains(out, "x") {
		t.Fatalf("render missing cells: %s", out)
	}
	if tbl.Get("m", "a") != 3 {
		t.Fatal("Get wrong")
	}
}

func TestApplicable(t *testing.T) {
	if applicable("transformer", "vdnn-conv") || applicable("transformer", "superneurons") {
		t.Fatal("conv policies must be inapplicable to the transformer")
	}
	if !applicable("vgg16", "vdnn-conv") || !applicable("transformer", "vdnn-all") {
		t.Fatal("applicable cases wrong")
	}
}

func TestFig14bStrategyMix(t *testing.T) {
	rows, err := Fig14bStrategyMix(160)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if RenderFig14b(rows) == "" {
		t.Fatal("empty render")
	}
}
