package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tsplit/internal/models"
)

var updateChainGolden = flag.Bool("update", false, "rewrite testdata/chain_counters.golden from this build")

// TestChainCountersGolden pins the planner's chain bookkeeping, which
// the plan-equivalence tests cannot see: a planner that re-derives
// more recompute chains than it must, or rescores more candidates,
// still returns the same plan. One line per zoo model × batch (8, 32)
// × budget (35–80 % of the unmanaged peak) × historyVariants entry,
// every workload's runs on one pooled planner in that order, holds the
// run's chain and candidate counters and the SHA-256 of its report
// JSON. Rerun with -update only when a change means to move them.
func TestChainCountersGolden(t *testing.T) {
	const path = "testdata/chain_counters.golden"
	var b strings.Builder
	for _, model := range models.Names() {
		for _, batch := range []int{8, 32} {
			tb := newTestbed(t, model, models.Config{BatchSize: batch})
			pp := NewPlannerPool(tb.g, tb.sched, tb.lv, tb.prof, tb.dev)
			for _, pct := range []int64{35, 45, 55, 65, 80} {
				for v, variant := range historyVariants {
					opts := Options{Capacity: tb.lv.Peak * pct / 100, FragmentationReserve: -1, CollectReport: true}
					variant(&opts)
					pl := pp.Get(opts)
					_, err := pl.Plan()
					report, jerr := json.Marshal(pl.Report())
					if jerr != nil {
						t.Fatal(jerr)
					}
					fmt.Fprintf(&b, "%s b%d %d%% v%d ok=%v rederived=%d skipped=%d rescored=%d scored=%d report=%x\n",
						model, batch, pct, v, err == nil, pl.statRederived, pl.statSkipped, pl.statRescored, pl.statCands,
						sha256.Sum256(report))
					pp.Put(pl)
				}
			}
		}
	}
	got := b.String()
	if *updateChainGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d diverges:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
