package baselines

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tsplit/internal/models"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/finalize_windows.golden from this build")

// TestFinalizeWindowsGolden pins what core.FinalizeWindows derives —
// every surviving decision's window and the per-index chain
// transients — for each zoo model under each baseline, as digests
// recorded before FinalizeWindows moved to the dense chain walker.
func TestFinalizeWindowsGolden(t *testing.T) {
	const path = "testdata/finalize_windows.golden"
	var got strings.Builder
	for _, model := range models.Names() {
		in := inputs(t, model, models.Config{})
		for _, policy := range Names {
			plan, err := Registry[policy](in)
			if err != nil {
				fmt.Fprintf(&got, "%s/%s error: %v\n", model, policy, err)
				continue
			}
			h := sha256.New()
			for _, tp := range plan.Tensors {
				fmt.Fprintf(h, "%d %s %d %d %d %d %d %d\n", tp.Tensor.ID, tp.Tensor.Name, tp.Opt,
					tp.EvictAt, tp.RestoreAt, tp.PrefetchAt, tp.MicroRestore, tp.ChainBytes)
			}
			fmt.Fprintln(h, plan.ChainTransients)
			fmt.Fprintf(&got, "%s/%s %d decisions %x\n", model, policy, len(plan.Tensors), h.Sum(nil))
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
		t.Fatalf("FinalizeWindows output changed; got\n%s\nwant\n%s", got.String(), want)
	}
}
