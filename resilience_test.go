package tsplit_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"tsplit"
)

// stripWallClock removes the one intentionally wall-clock-derived
// metric (planner latency, fed by the sanctioned clock site) from a
// metrics JSON exposition so the rest can be compared byte for byte.
func stripWallClock(t *testing.T, raw []byte) []byte {
	t.Helper()
	var ms []map[string]any
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	kept := ms[:0]
	for _, m := range ms {
		if m["name"] == "tsplit_planner_plan_seconds" {
			continue
		}
		kept = append(kept, m)
	}
	out, err := json.MarshalIndent(kept, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResilientAcceptance is the fault-injection acceptance gate over
// the paper's evaluation models: under the default fault severity the
// degradation ladder must always deliver a run (no OOM aborts), the
// surviving plan must verify clean, and repeating the run with the
// same fault seed must reproduce the execution trace and the metrics
// exposition byte for byte.
func TestResilientAcceptance(t *testing.T) {
	cases := []struct {
		model string
		batch int
		dev   tsplit.Device
	}{
		{"vgg16", 96, tsplit.GTX1080Ti},
		{"resnet50", 64, tsplit.TitanRTX},
		{"inceptionv4", 32, tsplit.TitanRTX},
		{"bert-large", 16, tsplit.TitanRTX},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			run := func() (tsplit.ResilientOutcome, tsplit.Report, []byte, []byte) {
				w, err := tsplit.Load(tc.model, tsplit.ModelConfig{BatchSize: tc.batch}, tc.dev)
				if err != nil {
					t.Fatal(err)
				}
				reg := tsplit.NewRegistry()
				out, rep, err := w.RunResilient(
					tsplit.PlanOptions{},
					tsplit.FaultConfig{Seed: 42, Severity: tsplit.DefaultFaultSeverity},
					tsplit.Observe(reg), tsplit.WithTimeline(),
				)
				if err != nil {
					t.Fatalf("resilient run aborted: %v", err)
				}
				var trace, metrics bytes.Buffer
				if err := tsplit.WriteTraceSpans(&trace, out.Result, nil); err != nil {
					t.Fatal(err)
				}
				if err := reg.WriteJSON(&metrics); err != nil {
					t.Fatal(err)
				}
				for _, v := range w.VerifyPlan(out.Plan) {
					t.Errorf("surviving plan: %s", v)
				}
				return out, rep, trace.Bytes(), stripWallClock(t, metrics.Bytes())
			}

			out1, rep1, trace1, met1 := run()
			out2, rep2, trace2, met2 := run()

			if rep1.Throughput <= 0 {
				t.Fatalf("no throughput delivered: %+v", rep1)
			}
			if len(out1.Stages) == 0 || out1.Stages[len(out1.Stages)-1].Err != "" {
				t.Fatalf("ladder did not end on a surviving rung: %+v", out1.Stages)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Fatal("same fault seed produced different traces")
			}
			if !bytes.Equal(met1, met2) {
				t.Fatal("same fault seed produced different metrics JSON")
			}
			if rep1.Throughput != rep2.Throughput || rep1.PeakGiB != rep2.PeakGiB {
				t.Fatal("same fault seed produced different reports")
			}
			if len(out1.Stages) != len(out2.Stages) {
				t.Fatalf("ladder trails diverged: %+v vs %+v", out1.Stages, out2.Stages)
			}
		})
	}
}
