// Command tsplit-doctor analyzes a postmortem artifact — a flight
// dump written on ladder escalation (or at exit with -flight-dump), a
// Prometheus metrics file, or a Chrome trace — and prints where the
// time went and what the run was doing when it died:
//
//	tsplit-doctor -dump crash.json
//	tsplit-doctor -metrics out.prom -baseline yesterday.prom
//	tsplit-doctor -dump crash.json -json | jq '.phases[0]'
//
// The report covers planner phase latency (counts, p50/p95/p99, share
// of total), simulator stall attribution by cause, the tail of the
// flight ring, and — when -baseline names an earlier artifact — the top
// metric and phase regressions against it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tsplit/internal/obs"
)

func load(dump, metrics, trace string) (*obs.Dump, error) {
	n := 0
	for _, s := range []string{dump, metrics, trace} {
		if s != "" {
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("exactly one of -dump, -metrics, -trace is required")
	}
	switch {
	case dump != "":
		return obs.ReadDumpFile(dump)
	case metrics != "":
		return obs.ParsePrometheusFile(metrics)
	default:
		return obs.ParseChromeTraceFile(trace)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsplit-doctor: ")
	dump := flag.String("dump", "", "postmortem dump file (written by -flight-dump or a ladder escalation)")
	metrics := flag.String("metrics", "", "Prometheus text metrics file (tsplit-train/tsplit-bench -metrics output)")
	trace := flag.String("trace", "", "Chrome trace file with a spans lane (tsplit-train -trace output)")
	baseline := flag.String("baseline", "", "earlier artifact of the same kind to diff against (regression hunt)")
	jsonOut := flag.Bool("json", false, "emit the diagnosis as JSON for CI instead of the human report")
	requirePhases := flag.Bool("require-phases", false, "exit nonzero unless the phase-latency breakdown is non-empty (CI smoke gate)")
	flag.Parse()

	d, err := load(*dump, *metrics, *trace)
	if err != nil {
		log.Fatal(err)
	}
	var base *obs.Dump
	if *baseline != "" {
		base, err = load(
			pick(*dump != "", *baseline), pick(*metrics != "", *baseline), pick(*trace != "", *baseline))
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
	}

	diag := obs.Diagnose(d, base)
	if *requirePhases && len(diag.Phases) == 0 {
		log.Fatal("no planner/simulator phase spans in the artifact (was it produced with tracing enabled?)")
	}
	if *jsonOut {
		if err := diag.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(diag.Render())
}

// pick routes the baseline path to the same loader slot as the
// primary artifact, so -baseline is parsed with the matching format.
func pick(use bool, path string) string {
	if use {
		return path
	}
	return ""
}
