// Quickstart: train a small convolutional network on synthetic data
// with REAL float32 arithmetic, twice — once unconstrained, once under
// a tight device-memory budget with a TSPLIT plan (swap + recompute +
// tensor splitting) — and verify that the losses match while the
// memory footprint shrinks.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/hostexec"
	"tsplit/internal/nn"
	"tsplit/internal/tensor"
	"tsplit/internal/workload"

	"tsplit"
)

// buildCNN builds a LeNet-style classifier for 16×16 synthetic images.
func buildCNN(batch int) (*graph.Graph, *graph.Tensor, *graph.Tensor) {
	g := graph.New()
	images := g.Input("images", tensor.NewShape(batch, 1, 16, 16), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(batch), tensor.Int32)
	x := g.ReLU("c1.relu", g.Conv2D("c1", images, 8, 3, 1, 1))
	x = g.MaxPool("p1", x, 2, 2, 0)
	x = g.ReLU("c2.relu", g.Conv2D("c2", x, 16, 3, 1, 1))
	x = g.MaxPool("p2", x, 2, 2, 0)
	flat := g.Reshape("flat", x, tensor.NewShape(batch, 16*4*4))
	h := g.ReLU("fc1.relu", g.Dense("fc1", flat, 64))
	logits := g.Dense("fc2", h, 4)
	g.CrossEntropyLoss("loss", logits, labels)
	if err := g.Differentiate(graph.Momentum); err != nil {
		log.Fatal(err)
	}
	return g, images, labels
}

func main() {
	const batch = 32
	g, imgT, _ := buildCNN(batch)
	w, err := tsplit.FromGraph("lenet", g, tsplit.TitanRTX, tsplit.ModelConfig{BatchSize: batch})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d ops, unmanaged peak %.2f MiB\n", len(g.Ops), float64(w.Lv.Peak)/(1<<20))

	// Plan against a budget of ~65% of the unmanaged peak.
	budget := w.Lv.Peak * 65 / 100
	plan, _, err := w.Prepared.Plan(core.Options{
		// Plan with ~20% headroom: the host engine charges transient
		// buffers (e.g. gradient staging) that the planner's analytic
		// model does not itemize.
		Capacity:             budget * 85 / 100,
		FragmentationReserve: -1,
	})
	if err != nil {
		log.Fatalf("planning under %.2f MiB: %v", float64(budget)/(1<<20), err)
	}
	fmt.Printf("plan under %.2f MiB: %v\n", float64(budget)/(1<<20), plan)

	// Train twice with identical seeds: unconstrained vs planned.
	basePlan := core.NewPlan("base", tsplit.TitanRTX)
	free := hostexec.New(g, w.Sched, basePlan, 42)
	tight := hostexec.New(g, w.Sched, plan, 42)
	tight.Capacity = budget

	// Synthetic, linearly separable-ish batches: the class sets the
	// quadrant that lights up.
	src, err := workload.NewImageSource(imgT, 4, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("step   loss(unconstrained)  loss(tsplit-planned)")
	for step := 1; step <= 8; step++ {
		b := src.Next()
		l1, err := free.Step(map[*graph.Tensor]*nn.Buffer{imgT: b.Inputs[imgT].Clone()}, b.Labels)
		if err != nil {
			log.Fatal(err)
		}
		l2, err := tight.Step(b.Inputs, b.Labels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d   %.6f             %.6f\n", step, l1, l2)
	}
	fmt.Printf("\npeak device bytes: unconstrained %.2f MiB, planned %.2f MiB (budget %.2f MiB)\n",
		float64(free.PeakBytes)/(1<<20), float64(tight.PeakBytes)/(1<<20), float64(budget)/(1<<20))
	fmt.Printf("memory ops under the plan: %d swaps, %d recomputed operators\n", tight.Swaps, tight.Recomputes)
}
