package sim_test

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden from this build")

// goldenBatches pairs each model with a batch that fits the Titan RTX
// unplanned (64) and one that does not, chosen where the managed runs
// compact or OOM in the simulator.
var goldenBatches = []struct {
	model   string
	batches [2]int
}{
	{"vgg16", [2]int{64, 256}},
	{"resnet50", [2]int{64, 512}},
	{"resnet101", [2]int{64, 512}},
	{"inceptionv4", [2]int{64, 512}},
	{"transformer", [2]int{64, 512}},
}

// TestResultsGolden pins the simulator's placements: every policy of
// the table plans each cell once and runs it once on a pooled
// simulator, and the cell records the OOM (or planning) error, or the
// run's peak, iteration time, compactions, moved bytes, recomputed ops
// and swap volumes. Any change to where the pool places a block moves
// a peak, a compaction count or an OOM string here. Rerun with -update
// only after an intentional change to the allocator or the executor.
func TestResultsGolden(t *testing.T) {
	const path = "testdata/results.golden"
	var got strings.Builder
	for _, mb := range goldenBatches {
		for _, batch := range mb.batches {
			p, err := prep.Build(mb.model, models.Config{BatchSize: batch}, device.TitanRTX)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range prep.Policies {
				fmt.Fprintf(&got, "%s/b%d/%s ", mb.model, batch, pol.Name)
				plan, _, err := p.PlanPolicy(pol.Name, core.Options{})
				if err != nil {
					fmt.Fprintf(&got, "plan error: %v\n", err)
					continue
				}
				res, err := p.Simulate(plan, sim.Options{Recompute: pol.Recompute})
				if err != nil {
					fmt.Fprintf(&got, "sim error: %v\n", err)
					continue
				}
				fmt.Fprintf(&got, "peak=%d time=%s compactions=%d moved=%d recomputed=%d swapout=%d swapin=%d\n",
					res.PeakBytes, strconv.FormatFloat(res.Time, 'g', -1, 64), res.Compactions,
					res.MovedBytes, res.RecomputedOps, res.SwapOutBytes, res.SwapInBytes)
			}
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
		t.Fatalf("simulated results changed; got\n%s\nwant\n%s", got.String(), want)
	}
}
