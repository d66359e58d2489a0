package graph_test

import (
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/workload"
)

// requireDenseIDs checks the invariant documented on Graph.Tensors and
// Graph.Ops: an ID is its index.
func requireDenseIDs(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	for i, x := range g.Tensors {
		if x.ID != i {
			t.Fatalf("%s: Tensors[%d] has ID %d", what, i, x.ID)
		}
	}
	for i, op := range g.Ops {
		if op.ID != i {
			t.Fatalf("%s: Ops[%d] has ID %d", what, i, op.ID)
		}
	}
}

// TestIDsAreIndices holds every graph the repository builds to dense
// IDs: each zoo model built fresh, a workload rebatched from its
// template (into an empty slot, then in place), and the random graphs.
// The planner and the simulator size their ID-indexed arrays by
// len(Tensors) and len(Ops) on the strength of it.
func TestIDsAreIndices(t *testing.T) {
	for _, model := range models.Names() {
		var gs [2]*graph.Graph
		for i := range gs {
			g, err := models.Build(model, models.Config{BatchSize: i + 1})
			if err != nil {
				t.Fatal(err)
			}
			requireDenseIDs(t, model, g)
			gs[i] = g
		}
		tp, err := graph.NewTemplate(gs[0], gs[1])
		if err != nil {
			t.Fatal(err)
		}
		var w graph.Workload
		for _, n := range []int{16, 3} {
			tp.Rebatch(n, &w)
			requireDenseIDs(t, model+" rebatched", w.G)
		}
	}
	for seed := uint64(0); seed < 16; seed++ {
		requireDenseIDs(t, "random graph", workload.RandGraph(seed))
	}
}
