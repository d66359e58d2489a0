package experiments

import (
	"strings"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/models"
)

// TestPlanLatency checks the sweep covers the whole zoo and produces
// well-formed rows; the durations themselves are wall-clock and only
// sanity-checked for positivity.
func TestPlanLatency(t *testing.T) {
	rows, err := PlanLatency(device.TitanRTX, 3)
	if err != nil {
		t.Fatal(err)
	}
	names := models.Names()
	if len(rows) != len(names) {
		t.Fatalf("got %d rows, want one per zoo model (%d)", len(rows), len(names))
	}
	for i, r := range rows {
		if r.Model != names[i] {
			t.Errorf("row %d: model %q, want %q", i, r.Model, names[i])
		}
		if r.Ops <= 0 || r.Tensors <= 0 {
			t.Errorf("%s: empty workload (ops=%d tensors=%d)", r.Model, r.Ops, r.Tensors)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("%s: implausible percentiles: %v/%v", r.Model, r.P50, r.P99)
		}
	}
	out := RenderPlanLat(rows)
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("render is missing %q:\n%s", name, out)
		}
	}
}
