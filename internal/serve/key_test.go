package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/tensor"
	"tsplit/internal/workload"
)

// digestWriter, refGraphDigest and refPlanKey are the key derivation
// as it shipped before graphDigest buffered its writes and planKey
// moved to a stack array, kept verbatim as the reference: one
// hash.Hash Write per field. Every key the server has ever handed out
// was derived this way, so the shipping functions must agree with
// these on every input.

// digestWriter wraps a hash with length-prefixed primitive writes so
// adjacent fields can never alias each other (the classic "ab"+"c" ==
// "a"+"bc" collision).
type digestWriter struct{ h hash.Hash }

func (d digestWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, _ = d.h.Write(b[:]) // hash.Hash.Write never errors
}

func (d digestWriter) i64(v int64)   { d.u64(uint64(v)) }
func (d digestWriter) i(v int)       { d.u64(uint64(int64(v))) }
func (d digestWriter) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d digestWriter) bool(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d digestWriter) str(s string) {
	d.u64(uint64(len(s)))
	_, _ = d.h.Write([]byte(s)) // hash.Hash.Write never errors
}

func refGraphDigest(g *graph.Graph) [sha256.Size]byte {
	d := digestWriter{h: sha256.New()}
	d.str("tsplit.graph.v1")
	d.i(len(g.Tensors))
	for _, t := range g.Tensors {
		d.i(t.ID)
		d.str(t.Name)
		d.i(len(t.Shape))
		for _, dim := range t.Shape {
			d.i(dim)
		}
		d.i(int(t.DType))
		d.i(int(t.Kind))
	}
	d.i(len(g.Ops))
	for _, op := range g.Ops {
		d.i(op.ID)
		d.str(op.Name)
		d.i(int(op.Kind))
		d.i(int(op.Phase))
		d.i64(op.Workspace)
		a := op.Attrs
		d.i(a.KernelH)
		d.i(a.KernelW)
		d.i(a.StrideH)
		d.i(a.StrideW)
		d.i(a.PadH)
		d.i(a.PadW)
		d.i(a.Axis)
		d.f64(a.Prob)
		d.i(len(op.Inputs))
		for _, t := range op.Inputs {
			d.i(t.ID)
		}
		d.i(len(op.Outputs))
		for _, t := range op.Outputs {
			d.i(t.ID)
		}
		d.i(len(op.ControlDeps))
		for _, c := range op.ControlDeps {
			d.i(c.ID)
		}
		if op.FwdOp != nil {
			d.i(op.FwdOp.ID)
		} else {
			d.i(-1)
		}
	}
	var out [sha256.Size]byte
	d.h.Sum(out[:0])
	return out
}

func refPlanKey(gd [sha256.Size]byte, dev device.Device, o PlanOptions) string {
	d := digestWriter{h: sha256.New()}
	d.str("tsplit.plan.v1")
	_, _ = d.h.Write(gd[:]) // hash.Hash.Write never errors
	d.str(dev.Name)
	d.i64(dev.MemBytes)
	d.f64(dev.PeakFLOPS)
	d.f64(dev.MemBandwidth)
	d.f64(dev.PCIeBandwidth)
	d.f64(dev.KernelLaunch)
	d.f64(dev.SaturationFLOP)
	d.str(o.Policy)
	d.i64(o.CapacityBytes)
	d.bool(o.DisableSplit)
	d.f64(o.SafetyMargin)
	d.i(len(o.PNums))
	for _, p := range o.PNums {
		d.i(p)
	}
	d.bool(o.Report)
	return hex.EncodeToString(d.h.Sum(nil))
}

// keyOptions are option sets that between them set every field a key
// covers, at the sizes validation allows and past them.
var keyOptions = []PlanOptions{
	{Policy: "tsplit"},
	{Policy: "tsplit", CapacityBytes: 6 << 30, Report: true},
	{Policy: "tsplit-nosplit", DisableSplit: true, SafetyMargin: 0.25},
	{Policy: "tsplit", PNums: []int{2, 3, 4, 8, 16, 32, 48, 64}, SafetyMargin: 0.9, CapacityBytes: 1},
	{Policy: "fairscale-offload", CapacityBytes: math.MaxInt64},
	{Policy: strings.Repeat("p", 2*planKeyBytes), PNums: make([]int, 100)}, // spills the stack array
}

// checkKeys holds graphDigest and planKey to the reference on g, on
// every device and option set.
func checkKeys(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	gd := graphDigest(g)
	if want := refGraphDigest(g); gd != want {
		t.Fatalf("%s: graphDigest %x, reference %x", name, gd, want)
	}
	devs := []device.Device{device.TitanRTX, device.P100, {Name: strings.Repeat("d", planKeyBytes)}}
	for _, dev := range devs {
		for i, o := range keyOptions {
			if got, want := planKey(gd, dev, o), refPlanKey(gd, dev, o); got != want {
				t.Fatalf("%s on %.16s, options %d: planKey %s, reference %s", name, dev.Name, i, got, want)
			}
		}
	}
}

// TestKeysEqualReference: the buffered digest and the stack-assembled
// plan key produce the reference's bytes over the model zoo at three
// batch sizes, 64 random graphs, and graphs whose names outgrow the
// digest buffer — whether a record straddles a flush, fills the buffer
// exactly, or must grow it.
func TestKeysEqualReference(t *testing.T) {
	for _, model := range models.Names() {
		for _, batch := range []int{1, 32, 256} {
			g, err := models.Build(model, models.Config{BatchSize: batch})
			if err != nil {
				t.Fatalf("%s b%d: %v", model, batch, err)
			}
			checkKeys(t, fmt.Sprintf("%s b%d", model, batch), g)
		}
	}
	for seed := uint64(0); seed < 64; seed++ {
		checkKeys(t, fmt.Sprintf("rand seed %d", seed), workload.RandGraph(seed))
	}
	for _, n := range []int{digestChunk - 64, digestChunk, 2*digestChunk - 1, 2 * digestChunk, 5*digestChunk + 3} {
		g := graph.New()
		x := g.Input(strings.Repeat("x", n), tensor.Shape{4, 8}, tensor.Float32)
		h := g.Dense(strings.Repeat("dense", n/5+1), x, 16)
		g.ReLU("relu", h)
		checkKeys(t, fmt.Sprintf("%d-byte names", n), g)
	}
}

// TestWorkloadIDSpelling: the appended id is the string the
// fmt.Sprintf it replaced produced (flight events and tests name it).
func TestWorkloadIDSpelling(t *testing.T) {
	for _, scale := range []float64{0, 0.1, 0.5, 1, 1.5, 2.25, 1.0 / 3, 8, 1e-7, 1e21} {
		req := &PlanRequest{Model: "bert-large", Device: "TITAN RTX",
			Config: ModelConfig{BatchSize: 64, ParamScale: scale, ImageSize: 224, SeqLen: 128}}
		c := req.Config
		want := fmt.Sprintf("model:%s|b:%d|ps:%g|img:%d|seq:%d|dev:%s",
			req.Model, c.BatchSize, c.ParamScale, c.ImageSize, c.SeqLen, req.Device)
		if got := req.workloadID(); got != want {
			t.Errorf("workloadID = %q, want %q", got, want)
		}
	}
	for _, seed := range []uint64{0, 7, math.MaxUint64} {
		req := &PlanRequest{Spec: &GraphSpec{Seed: seed}, Device: "P100"}
		if got, want := req.workloadID(), fmt.Sprintf("spec:%d|dev:%s", seed, req.Device); got != want {
			t.Errorf("workloadID = %q, want %q", got, want)
		}
	}
	long := &PlanRequest{Model: strings.Repeat("m", 300), Device: "P100"}
	if got, want := long.workloadID(), "model:"+long.Model+"|b:0|ps:0|img:0|seq:0|dev:P100"; got != want {
		t.Errorf("workloadID past the stack buffer = %q, want %q", got, want)
	}
}
