package core

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"tsplit/internal/models"
)

// ReferencePlanJSON builds the plan's PlanJSON value field by field:
// the reflective encoder AppendPlanJSON replaced, kept as its oracle
// (json.Marshal of this value must equal AppendPlanJSON's bytes).
func ReferencePlanJSON(p *Plan) PlanJSON {
	out := PlanJSON{
		Policy: p.Name, Device: p.Dev.Name,
		Offload: p.OffloadOptimizer, Sharded: p.ShardParams,
		PeakGiB:  float64(p.PredictedPeak) / (1 << 30),
		TimeSecs: p.PredictedTime,
	}
	for _, tp := range p.Tensors {
		out.Tensors = append(out.Tensors, TensorPlanJSON{
			Tensor: tp.Tensor.Name, Bytes: tp.Tensor.Bytes(),
			Opt: tp.Opt.String(), EvictAt: tp.EvictAt,
			PrefetchAt: tp.PrefetchAt, RestoreAt: tp.RestoreAt,
			MicroRestore: tp.MicroRestore,
		})
	}
	for _, sp := range p.Splits {
		sj := OpSplitJSON{
			Op: sp.Op.Name, PNum: sp.PNum, Dim: sp.Dim.String(),
			InOpt: sp.InOpt.String(), EarlyOut: sp.EarlyOut,
		}
		for _, t := range sp.MicroIns {
			sj.MicroIns = append(sj.MicroIns, t.Name)
		}
		out.Splits = append(out.Splits, sj)
	}
	return out
}

// ReferenceExportJSON is the indented export ExportJSON replaced: the
// reference value through a json.Encoder with SetIndent("", "  ").
func ReferenceExportJSON(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ReferencePlanJSON(p))
}

func TestExportJSONRoundTrips(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	plan := tb.plan(t, Options{Capacity: tb.lv.Peak * 60 / 100, FragmentationReserve: -1})
	var buf bytes.Buffer
	if err := ExportJSON(&buf, plan); err != nil {
		t.Fatal(err)
	}
	var back PlanJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if back.Policy != "tsplit" || back.Device != "TITAN RTX" {
		t.Fatalf("header wrong: %+v", back)
	}
	if len(back.Tensors) != len(plan.Tensors) {
		t.Fatalf("serialized %d tensors of %d", len(back.Tensors), len(plan.Tensors))
	}
	for _, tp := range back.Tensors {
		if tp.Opt != "swap" && tp.Opt != "recompute" {
			t.Fatalf("unexpected opt %q", tp.Opt)
		}
		if tp.Bytes <= 0 {
			t.Fatalf("tensor %s has no size", tp.Tensor)
		}
	}
}

func TestExportJSONDeterministic(t *testing.T) {
	tb := newTestbed(t, "vgg16", models.Config{BatchSize: 64})
	plan := tb.plan(t, Options{Capacity: tb.lv.Peak * 60 / 100, FragmentationReserve: -1})
	var a, b bytes.Buffer
	if err := ExportJSON(&a, plan); err != nil {
		t.Fatal(err)
	}
	if err := ExportJSON(&b, plan); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("export is not deterministic")
	}
}

func TestAugmentedDOT(t *testing.T) {
	_, _, ag := augment(t, "vgg16", models.Config{BatchSize: 64}, 60)
	var buf bytes.Buffer
	if err := ag.DOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph tsplit {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatal("not a DOT document")
	}
	if !strings.Contains(out, "indianred1") || !strings.Contains(out, "palegreen") {
		t.Fatal("memory operators not rendered")
	}
	if !strings.Contains(out, "style=dashed") {
		t.Fatal("control edges not rendered")
	}
}
