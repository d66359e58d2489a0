package experiments

import (
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/models"
)

func TestFaultSweepGracefulDegradation(t *testing.T) {
	rep, err := new(Sweep).FaultSweep("vgg16", models.Config{BatchSize: 96}, device.GTX1080Ti, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 4 {
		t.Fatalf("sweep too small: %+v", rep.Rows)
	}
	for _, row := range rep.Rows {
		if !row.Feasible {
			t.Fatalf("severity %.2f aborted — the ladder must always deliver a run", row.Severity)
		}
		if row.Throughput <= 0 {
			t.Fatalf("severity %.2f: no throughput", row.Severity)
		}
	}
	base := rep.Rows[0]
	if base.Severity != 0 || base.Retries != 0 || base.CapacityEvents != 0 {
		t.Fatalf("severity-0 row must be fault-free: %+v", base)
	}
	worst := rep.Rows[len(rep.Rows)-1]
	if worst.Throughput > base.Throughput {
		t.Fatalf("full severity faster than fault-free: %.1f vs %.1f", worst.Throughput, base.Throughput)
	}
	if worst.Slowdown < 1 {
		t.Fatalf("slowdown %v below 1 at full severity", worst.Slowdown)
	}
	if out := rep.Render(); len(out) == 0 {
		t.Fatal("empty render")
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	var s Sweep
	a, err := s.FaultSweep("vgg16", models.Config{BatchSize: 96}, device.GTX1080Ti, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.FaultSweep("vgg16", models.Config{BatchSize: 96}, device.GTX1080Ti, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("concurrent sweep is nondeterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d diverged: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
