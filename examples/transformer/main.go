// Transformer: scale BERT-Large along the parameter dimension (hidden
// size ×k, the paper's Fig. 1 / Table V axis) and watch the memory
// wall move: convolution-centric policies cannot help at all (the ×
// entries of Table IV), while TSPLIT splits the attention-score and
// vocabulary-projection operators that dominate the footprint.
//
//	go run ./examples/transformer
package main

import (
	"fmt"
	"log"
	"sort"

	"tsplit"
)

func main() {
	dev := tsplit.TitanRTX
	fmt.Printf("BERT-Large (batch 16, seq 128) on %s\n\n", dev)
	fmt.Printf("%-8s %-8s %12s %14s %14s\n", "scale k", "hidden", "peak GiB", "vdnn-conv", "tsplit")
	for _, k := range []float64{1, 2, 3, 4} {
		w, err := tsplit.Load("bert-large", tsplit.ModelConfig{BatchSize: 16, ParamScale: k}, dev)
		if err != nil {
			log.Fatal(err)
		}
		hidden := w.G.Params[0].Shape[1]
		peak := float64(w.BaselinePeakBytes()) / (1 << 30)

		conv := "x (no conv layers)"
		if _, err := w.PlanBaseline("vdnn-conv"); err == nil {
			conv = "ok"
		}
		status := "OOM"
		if _, rep, err := w.RunPolicy("tsplit", tsplit.PlanOptions{}); err == nil {
			status = fmt.Sprintf("%.1f seq/s", rep.Throughput)
		}
		fmt.Printf("%-8.1f %-8d %12.1f %14s %14s\n", k, hidden, peak, conv, status)
	}

	// Show what the planner actually split at scale 4 (over the 24 GB
	// capacity: splitting is load-bearing here).
	w, err := tsplit.Load("bert-large", tsplit.ModelConfig{BatchSize: 16, ParamScale: 4}, dev)
	if err != nil {
		log.Fatal(err)
	}
	plan, _, err := w.RunPolicy("tsplit", tsplit.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan at k=4: %v\n", plan)
	var names []string
	for _, sp := range plan.Splits {
		names = append(names, fmt.Sprintf("  %-28s p_num=%-3d dim=%-7s in=%v", sp.Op.Name, sp.PNum, sp.Dim, sp.InOpt))
	}
	sort.Strings(names)
	for i, n := range names {
		if i >= 12 {
			fmt.Printf("  ... and %d more\n", len(names)-i)
			break
		}
		fmt.Println(n)
	}
}
