// Package lint is a stdlib-only static-analysis engine for the tsplit
// module, plus the project-specific determinism analyzers that run
// under cmd/tsplit-lint.
//
// TSPLIT's planner is only trustworthy if its output is byte-identical
// run to run: the simulator's event order, the plan export, and the
// greedy tie-breaks all assume that no wall-clock reading, map
// iteration order, or exact floating-point comparison leaks into a
// decision (PR 1 fixed three such bugs by hand). The analyzers in this
// package turn those conventions into machine-checked rules:
//
//   - maporder: `for range` over a map in a determinism-critical
//     package (core, sim, experiments, obs) unless the loop only
//     collects keys that are subsequently sorted, or only deletes.
//   - clockdet: any time.Now/Since/... call or math/rand import
//     outside the sanctioned-sites allowlist (internal/obs/clock.go,
//     internal/faults/rand.go).
//   - floateq: == / != between floating-point operands in planner
//     scoring (package core).
//   - errdrop: call statements that silently discard an error result.
//   - scratchreuse: make / growing-append inside a loop in the pooled
//     planner hot-path files (internal/core), where steady-state
//     allocations erode the PlannerPool near-zero allocs/op budget.
//   - spanpair: a StartSpan call in the instrumented packages (core,
//     sim, resilient) whose span is never End()ed in the same
//     function — a leak that poisons tsplit-doctor's phase latencies.
//
// On top of the per-package rules, an interprocedural layer (a module
// call graph plus per-function summaries computed bottom-up over its
// SCCs — see callgraph.go and interp.go) checks declared locking
// contracts:
//
//   - guardedby: a struct field annotated `// lint:guardedby mu` may
//     only be read with mu held (RLock or Lock) and written with mu
//     held exclusively — directly, or in a helper every caller of
//     which provably holds the lock.
//
// Findings can be suppressed with a `//lint:allow <rule> <reason>`
// comment: placed above the package clause it covers the whole file,
// otherwise it covers the line it is on and the line below it. The
// reason is mandatory and the rule must exist (`tsplit-lint -audit`
// flags reasonless allows and allows naming an unknown rule).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("tsplit/internal/core").
	Path string
	// Dir is the package directory, relative to the module root with
	// forward slashes ("." for the root package).
	Dir string
	// Fset is the (module-shared) position table.
	Fset *token.FileSet
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types is the checked package object.
	Types *types.Package
	// Info carries the expression types and identifier uses the
	// analyzers query.
	Info *types.Info
}

// Pass is the per-(analyzer, package) run context handed to an
// analyzer's Run function.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Path  string
	Pkg   *types.Package
	Info  *types.Info

	rule string
	out  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Analyzer is one lint rule.
type Analyzer struct {
	// Name is the rule identifier used in output and in //lint:allow.
	Name string
	// Doc is a one-line description.
	Doc string
	// Packages restricts the analyzer to these import paths (exact
	// match); empty means every package. For module-level analyzers
	// the restriction applies to where findings are *reported*: the
	// analysis itself always sees the whole module.
	Packages []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule, when set, runs once over the whole module with the
	// shared interprocedural state instead of per package.
	RunModule func(*ModulePass)
}

func (a *Analyzer) appliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// ModulePass is the run context for a module-level (interprocedural)
// analyzer: the whole package set plus the shared call-graph and
// summary state.
type ModulePass struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Interp *Interp

	analyzer *Analyzer
	out      *[]Diagnostic
}

// Reportf records a finding at pos, attributed to the package at
// pkgPath. Findings outside the analyzer's package scope are dropped.
func (mp *ModulePass) Reportf(pkgPath string, pos token.Pos, format string, args ...any) {
	if !mp.analyzer.appliesTo(pkgPath) {
		return
	}
	position := mp.Fset.Position(pos)
	*mp.out = append(*mp.out, Diagnostic{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    mp.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the project rule set, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{MapOrder, ClockDet, FloatEq, ErrDrop, ScratchReuse, SpanPair, GuardedBy}
}

// ByName resolves a comma-separated rule list ("maporder,errdrop").
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	all := Analyzers()
	var sel []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range all {
			if a.Name == n {
				sel = append(sel, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown rule %q", n)
		}
	}
	return sel, nil
}

// Run executes the analyzers over the packages, filters suppressed
// findings, and returns the remainder sorted by position then rule.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var interp *Interp
	for _, a := range analyzers {
		if a.RunModule != nil {
			interp = NewInterp(pkgs)
			break
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.appliesTo(pkg.Path) {
				continue
			}
			a.Run(&Pass{
				Fset: pkg.Fset, Files: pkg.Files, Path: pkg.Path,
				Pkg: pkg.Types, Info: pkg.Info,
				rule: a.Name, out: &diags,
			})
		}
	}
	if len(pkgs) > 0 {
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			a.RunModule(&ModulePass{
				Fset: pkgs[0].Fset, Pkgs: pkgs, Interp: interp,
				analyzer: a, out: &diags,
			})
		}
	}
	diags = filterSuppressed(diags, pkgs)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// allowRe matches `lint:allow rule1,rule2 reason...`, capturing the
// rule list and the (mandatory — see Audit) trailing reason.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([a-z0-9_,-]+)[ \t]*(.*?)\s*$`)

// forEachAllow calls fn for every lint:allow directive in f, in source
// order. A directive above the package clause is file-wide; elsewhere
// it covers its own line and the immediately following line.
func forEachAllow(fset *token.FileSet, f *ast.File, fn func(AllowSite, token.Position)) {
	pkgLine := fset.Position(f.Package).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			site := AllowSite{
				File:     pos.Filename,
				Line:     pos.Line,
				Reason:   strings.TrimSpace(m[2]),
				FileWide: pos.Line < pkgLine,
			}
			for _, rule := range strings.Split(m[1], ",") {
				if rule = strings.TrimSpace(rule); rule != "" {
					site.Rules = append(site.Rules, rule)
				}
			}
			fn(site, pos)
		}
	}
}

// allowKey is one suppressed (file, line, rule); line 0 stands for the
// whole file.
type allowKey struct {
	file string
	line int
	rule string
}

func filterSuppressed(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	allowed := map[allowKey]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			forEachAllow(pkg.Fset, f, func(s AllowSite, _ token.Position) {
				for _, rule := range s.Rules {
					if s.FileWide {
						allowed[allowKey{s.File, 0, rule}] = true
						continue
					}
					allowed[allowKey{s.File, s.Line, rule}] = true
					allowed[allowKey{s.File, s.Line + 1, rule}] = true
				}
			})
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if allowed[allowKey{d.File, 0, d.Rule}] || allowed[allowKey{d.File, d.Line, d.Rule}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
