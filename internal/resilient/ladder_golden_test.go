package resilient_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tsplit"
	"tsplit/internal/models"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ladders.golden from this build")

// ladderModels and ladderBudgets are the fault grid tsplit-train
// -faults runs: batch 64, capacity a fraction of the unmanaged peak.
var (
	ladderModels  = []string{"vgg16", "resnet50", "inceptionv4", "bert-large", "transformer"}
	ladderBudgets = []float64{0.5, 0.65, 0.8}
)

// ladderCapacity is tsplit-train's budget rule: a fraction of the
// unmanaged peak, never above the device.
func ladderCapacity(w *tsplit.Workload, budget float64) int64 {
	c := int64(float64(w.BaselinePeakBytes()) * budget)
	if c > w.Dev.MemBytes {
		c = w.Dev.MemBytes
	}
	return c
}

// planDigest hashes the plan's exported JSON.
func planDigest(t *testing.T, p *tsplit.Plan) string {
	t.Helper()
	var b bytes.Buffer
	if err := tsplit.ExportPlanJSON(&b, p); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// resultDigest hashes every field of a simulated result.
func resultDigest(r tsplit.SimResult) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", r))))
}

// TestLadderGolden pins both planner ladders end to end: the
// resilient degradation ladder over the fault grid (stage trail, plan
// JSON digest, simulated result digest) and RunPolicy("tsplit", …)'s
// reserve ladder over the zoo. Any change to how a rung plans shows
// up here as a moved digest.
func TestLadderGolden(t *testing.T) {
	const path = "testdata/ladders.golden"
	var got strings.Builder
	for _, model := range ladderModels {
		w, err := tsplit.Load(model, tsplit.ModelConfig{BatchSize: 64}, tsplit.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range ladderBudgets {
			cap := ladderCapacity(w, budget)
			for seed := uint64(1); seed <= 4; seed++ {
				fmt.Fprintf(&got, "run %s b=%.2f seed=%d:", model, budget, seed)
				out, _, err := w.RunResilient(tsplit.PlanOptions{CapacityBytes: cap},
					tsplit.FaultConfig{Seed: seed, Severity: 1})
				for _, st := range out.Stages {
					fmt.Fprintf(&got, " %s@%.2f", st.Kind, st.Margin)
					if st.Err != "" {
						fmt.Fprintf(&got, "[%s]", st.Err)
					}
				}
				if err != nil {
					fmt.Fprintf(&got, " error: %v\n", err)
					continue
				}
				fmt.Fprintf(&got, " plan %s sim %s\n", planDigest(t, out.Plan), resultDigest(out.Result))
			}
		}
	}
	for _, model := range models.Names() {
		w, err := tsplit.Load(model, tsplit.ModelConfig{BatchSize: 64}, tsplit.TitanRTX)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range ladderBudgets {
			fmt.Fprintf(&got, "autoplan %s b=%.2f:", model, budget)
			plan, rep, err := w.RunPolicy("tsplit", tsplit.PlanOptions{CapacityBytes: ladderCapacity(w, budget)})
			if err != nil {
				fmt.Fprintf(&got, " error: %v\n", err)
				continue
			}
			fmt.Fprintf(&got, " plan %s sim %s\n", planDigest(t, plan), resultDigest(rep.Raw))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ladder outcomes changed; got\n%s\nwant\n%s", got.String(), want)
	}
}
