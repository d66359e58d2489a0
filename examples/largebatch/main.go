// Largebatch: explore how far each memory-management policy can push
// VGG-16's batch size on a 24 GB Titan RTX, and what it costs in
// throughput — the sample-scale story of the paper's Table IV and
// Fig. 12.
//
//	go run ./examples/largebatch
package main

import (
	"fmt"
	"log"

	"tsplit"
)

func main() {
	const model = "vgg16"
	dev := tsplit.TitanRTX
	policies := []string{"base", "vdnn-all", "checkpoints", "superneurons", "tsplit"}

	fmt.Printf("%s on %s\n\n", model, dev)
	fmt.Printf("%-14s %8s %12s %10s %8s %8s\n", "policy", "batch", "images/s", "overhead", "peakGiB", "pcie%")
	for _, batch := range []int{64, 192, 320, 448} {
		w, err := tsplit.Load(model, tsplit.ModelConfig{BatchSize: batch}, dev)
		if err != nil {
			log.Fatal(err)
		}
		for _, pol := range policies {
			plan, rep, err := w.RunPolicy(pol, tsplit.PlanOptions{})
			if err != nil {
				fmt.Printf("%-14s %8d %12s\n", pol, batch, "OOM")
				continue
			}
			fmt.Printf("%-14s %8d %12.1f %9.1f%% %8.1f %7.1f%%",
				pol, batch, rep.Throughput, rep.Overhead*100, rep.PeakGiB, rep.PCIeUtilization*100)
			if pol == "tsplit" {
				fmt.Printf("  (%s)", plan)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
