// Hardware: plan the same model on two different GPUs and compare the
// strategy mixes TSPLIT chooses — the paper's Fig. 14(b): the slower
// GTX 1080Ti makes recomputation relatively more expensive, so the
// planner shifts bytes toward swapping.
//
//	go run ./examples/hardware
package main

import (
	"fmt"
	"log"

	"tsplit"
)

func main() {
	const model, batch = "vgg16", 192
	for _, dev := range []tsplit.Device{tsplit.TitanRTX, tsplit.GTX1080Ti} {
		w, err := tsplit.Load(model, tsplit.ModelConfig{BatchSize: batch}, dev)
		if err != nil {
			log.Fatal(err)
		}
		plan, rep, err := w.RunPolicy("tsplit", tsplit.PlanOptions{})
		if err != nil {
			log.Fatalf("%s: %v", dev.Name, err)
		}
		c := plan.Counts()
		fmt.Printf("%s  (ideal %.0f img/s)\n", dev, float64(batch)/w.IdealTime())
		fmt.Printf("  swap      %6.2f GiB across %d tensors\n", float64(c.SwapBytes)/(1<<30), c.Swap)
		fmt.Printf("  recompute %6.2f GiB across %d tensors\n", float64(c.RecomputeBytes)/(1<<30), c.Recompute)
		fmt.Printf("  split     %d operators\n", c.SplitOps)
		fmt.Printf("  measured  %.1f img/s, peak %.1f GiB, PCIe %.0f%%\n",
			rep.Throughput, rep.PeakGiB, rep.PCIeUtilization*100)
		fmt.Println()
	}
}
