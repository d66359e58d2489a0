// Command bench is the repository's benchmark: four workloads against
// the planning service and the paper-reproduction sweeps, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// See README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; the last
//	      line of standard output is the result as one JSON object
//	bench [-seed N] [-seconds S] [-repeat K] [-out FILE]   every workload,
//	      untraced then traced; with -repeat 2 the second set is compared
//	      with the first
//	bench -compare A.json B.json                           compare two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "run this workload only and print its result as the last line (plan_miss, plan_hit, peak, sweep)")
	seed := flag.Uint64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 15, "length of a run's timed part")
	trace := flag.Int("trace", 0, "with -workload: 1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
	out := flag.String("out", "", "write the report of every set to this file")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare each later set with the first")
	compare := flag.Bool("compare", false, "compare the two -out files named as arguments")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *workload != "":
		err = runOne(defaults(*workload, *seed, *seconds, *trace == 1))
	default:
		err = runSets(*seed, *seconds, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed, when a check
// failed: the exit code must say so too.
var errIncorrect = fmt.Errorf("an output check failed")

// runOne is one run as the benchmark driver asks for it.
func runOne(cfg config) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	printResult(res)
	b, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// resultLine is a run's result as the one JSON object the driver
// reads: every metric of the run's kind, by name, with its unit. A
// per-layer metric of a layer that did no work in the workload is 0.
func resultLine(res *Result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defsFor(res.Trace) {
		line.Metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	return json.Marshal(line)
}

// header records what a report was measured on.
type header struct {
	Seed       uint64   `json:"seed"`
	Commit     string   `json:"commit"`
	Go         string   `json:"go"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Clients    int      `json:"clients"`
	Seconds    float64  `json:"seconds"`       // timed part of an untraced run
	TraceSecs  float64  `json:"trace_seconds"` // of a traced run
	Segments   int      `json:"segments"`      // a request run's timed part is cut into
	Population int      `json:"population"`    // keys of plan_hit and peak
	SweepHi    int      `json:"table4_bound"`  // Table IV batch-size search bound
	SetupReps  int      `json:"setup_repeats"` // set-ups behind setup_s
	MissWarmup int      `json:"miss_warmup"`   // unique-key requests of plan_miss's set-up
	Workloads  []string `json:"workloads"`
}

func newHeader(cfg config) header {
	return header{
		Seed: cfg.seed, Commit: commit(), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Seconds: cfg.seconds, TraceSecs: cfg.seconds / 4,
		Segments: segments, Population: cfg.keys, SweepHi: cfg.sweepHi,
		SetupReps: cfg.setupReps, MissWarmup: cfg.warmup, Workloads: workloadNames,
	}
}

// commit is the revision the binary was built from, when the build saw
// a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report is an -out file: the header and, per set, the untraced and
// the traced result of every workload.
type report struct {
	Header header      `json:"header"`
	Sets   [][]*Result `json:"sets"`
}

// runSets runs every workload untraced and then traced (for a quarter
// of the time), repeat times over.
func runSets(seed uint64, seconds float64, repeat int, out string) error {
	rep := report{Header: newHeader(defaults("", seed, seconds, false))}
	hb, err := json.Marshal(rep.Header)
	if err != nil {
		return err
	}
	fmt.Printf("header %s\n", hb)
	correct := true
	for set := 0; set < repeat; set++ {
		var results []*Result
		for _, trace := range []bool{false, true} {
			for _, name := range workloadNames {
				secs := seconds
				if trace {
					secs /= 4
				}
				res, err := run(defaults(name, seed, secs, trace))
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				printResult(res)
				correct = correct && res.Correct
				results = append(results, res)
			}
		}
		rep.Sets = append(rep.Sets, results)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	agree := true
	for set := 1; set < len(rep.Sets); set++ {
		fmt.Printf("\nset %d against set 0\n", set)
		agree = printComparison(rep.Sets[0], rep.Sets[set]) && agree
	}
	if !correct {
		return errIncorrect
	}
	if !agree {
		return fmt.Errorf("two sets of runs of one commit disagree")
	}
	return nil
}

// printResult lists every metric of a run by name, with its unit, its
// spread and its sample count.
func printResult(res *Result) {
	kind := "untraced"
	if res.Trace {
		kind = "traced"
	}
	fmt.Printf("\n%s (%s): %d operations, %d failed", res.Workload, kind, res.Attempted, res.Failed)
	if res.Redraws > 0 {
		fmt.Printf(", %d keys redrawn", res.Redraws)
	}
	fmt.Println()
	for _, d := range defsFor(res.Trace) {
		st := res.Metrics[d.Name]
		fmt.Printf("  %-28s %14.6g %-10s [%.6g .. %.6g] spread %.1f%% n=%d\n", d.Name, st.Value, d.Unit, st.Lo, st.Hi, 100*st.spread(), st.N)
	}
}

// compareFiles is -compare A.json B.json: the first set of each.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if len(reps[i].Sets) == 0 {
			return fmt.Errorf("%s holds no set of runs", path)
		}
	}
	if !printComparison(reps[0].Sets[0], reps[1].Sets[0]) {
		return fmt.Errorf("%s against %s: not every row is ok", args[1], args[0])
	}
	return nil
}

// printComparison prints one row per end-to-end metric and workload
// and reports whether every row is ok.
func printComparison(a, b []*Result) bool {
	byName := func(rs []*Result) map[string]*Result {
		m := map[string]*Result{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = r
			}
		}
		return m
	}
	am, bm := byName(a), byName(b)
	names := make([]string, 0, len(am))
	for name := range am {
		if bm[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-10s %-28s %12s %25s %7s %12s %25s %7s %7s  %s\n", "workload", "metric", "a", "a range", "spread", "b", "b range", "spread", "bound", "verdict")
	allOK := true
	for _, name := range names {
		for _, d := range endToEnd {
			x, y := am[name].Metrics[d.Name], bm[name].Metrics[d.Name]
			v := verdict(d, x, y)
			allOK = allOK && v == "ok"
			fmt.Printf("%-10s %-28s %12.6g %25s %6.1f%% %12.6g %25s %6.1f%% %6.1f%%  %s\n", name, d.Name,
				x.Value, fmt.Sprintf("[%.5g .. %.5g]", x.Lo, x.Hi), 100*x.spread(),
				y.Value, fmt.Sprintf("[%.5g .. %.5g]", y.Lo, y.Hi), 100*y.spread(), 100*d.Bound, v)
		}
	}
	return allOK
}

// verdict compares b with baseline a on one metric. A metric whose
// estimated run-to-run spread is wider than its bound is "unresolved"
// unless the two runs' ranges do not overlap at all: the comparison
// cannot tell a regression from noise.
func verdict(d metricDef, a, b Stat) string {
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Exact {
		if worse > 0 {
			return "regressed"
		}
		return "ok"
	}
	wide := a.spread() > d.Bound || b.spread() > d.Bound
	overlap := a.Lo <= b.Hi && b.Lo <= a.Hi
	switch {
	case wide && overlap:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "ok"
}
