// Command tsplit-lint runs the project's static-analysis suite over
// the module: the per-package determinism rules (maporder, clockdet,
// floateq, errdrop, scratchreuse, spanpair) and the interprocedural
// locking-contract rule (guardedby) built on the module call graph.
//
//	tsplit-lint                   # lint the module rooted at .
//	tsplit-lint -json             # machine-readable findings
//	tsplit-lint -rules maporder   # run a subset of rules
//	tsplit-lint -audit            # list every //lint:allow with its reason
//	tsplit-lint -report out.json  # also write findings to a JSON report ("-": stdout)
//	tsplit-lint -C path/to/module
//
// -audit lists every suppression in the module with its file:line,
// rules, and reason, and exits 1 if any directive is missing its
// reason or names a rule the suite does not have — a suppression must
// never outlive its justification or its rule.
//
// The exit status is 1 when findings remain, 2 on usage or load
// errors. Suppress an intentional pattern with a
// `//lint:allow <rule> <reason>` comment (file-wide when placed above
// the package clause, otherwise scoped to the next line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"tsplit/internal/lint"
	"tsplit/internal/obs"
)

func main() {
	dir := flag.String("C", ".", "module root directory (must contain go.mod)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	rules := flag.String("rules", "", "comma-separated rule subset (default: all rules)")
	list := flag.Bool("list", false, "list the available rules and exit")
	audit := flag.Bool("audit", false, "list every //lint:allow suppression; fail on missing reasons and unknown rules")
	report := flag.String("report", "", "also write the findings as a JSON report to this file (\"-\": stdout)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *audit {
		os.Exit(runAudit(mod, *jsonOut))
	}

	diags := lint.Run(mod.Pkgs, analyzers)
	if *report != "" {
		if err := obs.WriteFile(*report, func(w io.Writer) error { return writeJSON(w, diags) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "tsplit-lint: %d finding(s) in %d package(s)\n", len(diags), len(mod.Pkgs))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runAudit lists every suppression and returns the process exit code:
// 1 when any //lint:allow is missing its reason or names an unknown
// rule.
func runAudit(mod *lint.Module, jsonOut bool) int {
	sites, problems := lint.Audit(mod.Pkgs)
	if jsonOut {
		if err := writeJSON(os.Stdout, sites); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, s := range sites {
			fmt.Println(s)
		}
		fmt.Fprintf(os.Stderr, "tsplit-lint: %d suppression(s), %d audit finding(s)\n", len(sites), len(problems))
	}
	if len(problems) > 0 {
		for _, d := range problems {
			fmt.Fprintln(os.Stderr, d)
		}
		return 1
	}
	return 0
}

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
