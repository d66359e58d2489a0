// Command tsplit-bench regenerates the paper's evaluation tables and
// figures on the simulated devices. Run with -exp all (default) or a
// comma-separated subset of:
//
//	fig1 fig2a fig2b table2 fig5 table4 table5 fig12 fig13
//	fig14a fig14b table6 table7 fig15 faults ablations
//
// -quick trims the scale-search bounds so a full run finishes in about
// a minute; the defaults match the paper's ranges.
//
// An unknown -exp id exits 2 before anything runs. A failing
// experiment is reported on stderr, the rest still run, and the
// process exits 1 once the -metrics and -spans files are written.
//
// Wall-clock performance is measured by bench/ and the root
// BenchmarkPlannerPlan*/BenchmarkSimRun* benchmarks, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/experiments"
	"tsplit/internal/models"
	"tsplit/internal/obs"
)

// experiment is one table or figure: its -exp id and the function
// that renders it.
type experiment struct {
	id  string
	run func() (string, error)
}

// catalog lists every experiment in run order. hi and hiParam are the
// scale-search upper bounds (0 = the paper's defaults).
func catalog(hi, hiParam int) []experiment {
	return []experiment{
		{"fig1", func() (string, error) {
			grid, caps, err := experiments.Fig1BERTMemoryScale()
			if err != nil {
				return "", err
			}
			return experiments.RenderFig1(grid, caps), nil
		}},
		{"fig2a", func() (string, error) {
			fig, err := experiments.Fig2aMemoryTimeline(device.TitanRTX, 256)
			if err != nil {
				return "", err
			}
			return fig.Render(), nil
		}},
		{"fig2b", func() (string, error) {
			rows, err := experiments.Fig2bOverheadPCIe(device.TitanRTX, "superneurons")
			if err != nil {
				return "", err
			}
			return experiments.RenderOverhead("superneurons", rows), nil
		}},
		{"table2", func() (string, error) {
			buckets, err := experiments.Table2TensorSizes(32, 512)
			if err != nil {
				return "", err
			}
			return experiments.RenderTable2(buckets), nil
		}},
		{"fig5", func() (string, error) {
			curves, err := experiments.Fig5OpSplitCurves(device.TitanRTX, 64)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig5(curves), nil
		}},
		{"table4", func() (string, error) {
			return experiments.Table4MaxSampleScale(device.TitanRTX, hi).Render(), nil
		}},
		{"table5", func() (string, error) {
			return experiments.Table5MaxParamScale(device.TitanRTX, hiParam).Render(), nil
		}},
		{"fig12", func() (string, error) {
			return experiments.Fig12ThroughputRTX().Render(), nil
		}},
		{"fig13", func() (string, error) {
			return experiments.Fig13Throughput1080Ti().Render(), nil
		}},
		{"fig14a", func() (string, error) {
			rows, err := experiments.Fig14aScaleUnderThroughput(device.TitanRTX, hi)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig14a(rows), nil
		}},
		{"fig14b", func() (string, error) {
			rows, err := experiments.Fig14bStrategyMix(0)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig14b(rows), nil
		}},
		{"table6", func() (string, error) {
			return experiments.Table6MaxSampleVsOffload(device.TitanRTX, hi).Render(), nil
		}},
		{"table7", func() (string, error) {
			return experiments.Table7MaxParamVsOffload(device.TitanRTX, hiParam).Render(), nil
		}},
		{"fig15", func() (string, error) {
			return experiments.Fig15ThroughputVsOffload().Render(), nil
		}},
		{"faults", func() (string, error) {
			rep, err := experiments.FaultSweep("vgg16", models.Config{BatchSize: 96}, device.GTX1080Ti, 42)
			if err != nil {
				return "", err
			}
			return rep.Render(), nil
		}},
		{"ablations", func() (string, error) {
			reports, err := experiments.AllAblations()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range reports {
				b.WriteString(r.Render())
				b.WriteString("\n")
			}
			return b.String(), nil
		}},
	}
}

// selectExps resolves an -exp value against exps: "all" or a
// comma-separated list of ids. The result keeps catalog order. An
// unknown id is an error that lists the valid ones.
func selectExps(spec string, exps []experiment) ([]experiment, error) {
	ids := []string{"all"}
	for _, e := range exps {
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid ids: %s)", id, strings.Join(ids, " "))
		}
		want[id] = true
	}
	var out []experiment
	for _, e := range exps {
		if want["all"] || want[e.id] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	os.Exit(benchMain())
}

// benchMain runs the selected experiments and returns the exit code:
// 0 when all succeed, 1 when any experiment or output file fails, 2 on
// an unknown -exp id. The -metrics and -spans writers are deferred
// here, so they run before main exits and can still fail the run.
func benchMain() (code int) {
	exp := flag.String("exp", "all", "experiments to run (comma-separated ids, or 'all')")
	quick := flag.Bool("quick", false, "trim scale-search bounds for a fast run")
	metrics := flag.String("metrics", "", "write Prometheus text metrics for the whole run to this file (\"-\" = stdout)")
	spans := flag.String("spans", "", "write per-cell sweep spans as JSON to this file (\"-\" = stdout)")
	flag.Parse()

	hi := 0 // default search bounds
	hiParam := 0
	if *quick {
		hi = 512
		hiParam = 16
	}
	exps, err := selectExps(*exp, catalog(hi, hiParam))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsplit-bench: %v\n", err)
		return 2
	}

	if *metrics != "" {
		reg := obs.NewRegistry()
		experiments.Obs = reg
		defer func() {
			if err := obs.WriteFile(*metrics, reg.WritePrometheus); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				code = 1
			}
		}()
	}
	if *spans != "" {
		tr := obs.NewTracer(nil)
		experiments.Trace = tr
		defer func() {
			if err := obs.WriteFile(*spans, tr.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "spans: %v\n", err)
				code = 1
			}
		}()
	}

	for _, e := range exps {
		start := obs.Wall()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			code = 1
			continue
		}
		fmt.Printf("===== %s (%.1fs) =====\n%s\n", e.id, obs.Wall().Sub(start).Seconds(), out)
	}
	return code
}
