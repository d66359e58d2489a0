// Command tsplit-plan plans a model on a device and prints the full
// sTensor configuration: every swap/recompute decision with its
// eviction, prefetch and restore positions, every split decision with
// p_num and dimension, and (with -augment) the inserted-operator
// summary of the materialized augmented graph (paper Fig. 10).
//
//	tsplit-plan -model vgg16 -batch 256 -device "TITAN RTX"
//	tsplit-plan -model bert-large -batch 64 -policy superneurons
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/obs"

	"tsplit"
)

func main() {
	model := flag.String("model", "vgg16", "model name (see tsplit.Models)")
	batch := flag.Int("batch", 128, "batch size (sample scale)")
	scale := flag.Float64("scale", 1, "parameter scale multiplier")
	devName := flag.String("device", "TITAN RTX", "device profile name")
	policy := flag.String("policy", "tsplit", "policy: "+strings.Join(tsplit.Policies(), ", "))
	augment := flag.Bool("augment", false, "materialize and summarize the augmented graph")
	jsonPath := flag.String("json", "", "export the plan as JSON to this file (- for stdout)")
	dotPath := flag.String("dot", "", "export the augmented graph as Graphviz DOT to this file")
	verify := flag.Bool("verify", false, "check the plan against the safety invariants and fail on violations")
	verbose := flag.Bool("v", false, "print every per-tensor decision")
	flag.Parse()

	dev, err := device.ByName(*devName)
	if err != nil {
		log.Fatal(err)
	}

	w, err := tsplit.Load(*model, tsplit.ModelConfig{BatchSize: *batch, ParamScale: *scale}, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s batch=%d scale=%.2g on %s\n", *model, *batch, *scale, dev)
	fmt.Printf("unmanaged peak: %.2f GiB, ideal iteration: %.3f s\n\n",
		float64(w.BaselinePeakBytes())/(1<<30), w.IdealTime())

	plan, rep, err := w.RunPolicy(*policy, tsplit.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}

	if *verbose {
		fmt.Println(plan.Describe())
	} else {
		fmt.Println(plan)
	}
	fmt.Printf("\nmeasured: %.1f samples/s (%.1f%% overhead), peak %.2f GiB, PCIe %.0f%%, %d recomputed ops\n",
		rep.Throughput, rep.Overhead*100, rep.PeakGiB, rep.PCIeUtilization*100, rep.RecomputedOps)

	if *verify {
		if vs := w.VerifyPlan(plan); len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "\nplan verification FAILED: %d violation(s)\n", len(vs))
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Println("\nplan verification passed: all invariants hold")
	}

	if *jsonPath != "" {
		if err := obs.WriteFile(*jsonPath, func(w io.Writer) error { return tsplit.ExportPlanJSON(w, plan) }); err != nil {
			log.Fatalf("json export: %v", err)
		}
	}

	if *augment || *dotPath != "" {
		ag, err := w.Augment(plan)
		if err != nil {
			log.Fatalf("augment: %v", err)
		}
		fmt.Printf("\naugmented graph: %d ops (%d original)\n", len(ag.G.Ops), len(w.G.Ops))
		fmt.Printf("  swap-out %d  swap-in %d  split %d  merge %d  recompute %d\n",
			ag.SwapOuts, ag.SwapIns, ag.SplitOps, ag.MergeOps, ag.RecomputeOps)
		if *dotPath != "" {
			if err := obs.WriteFile(*dotPath, ag.DOT); err != nil {
				log.Fatalf("dot export: %v", err)
			}
		}
	}
}
