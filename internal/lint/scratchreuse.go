package lint

import (
	"go/ast"
)

// ScratchReuse is an advisory rule for the planner's and simulator's
// steady-state allocation budgets: internal/core's per-iteration
// machinery is pooled (arenas reset in place across Plan() calls —
// see DESIGN.md §7), and internal/sim's event loop is arena-backed
// the same way (SimPool recycling — see DESIGN.md's simulator
// performance section), so an allocation inside a loop there is
// either a bug in the pooling or a deliberate cold-path exception
// that deserves a visible `//lint:allow scratchreuse <reason>`.
//
// Two shapes are flagged, both only inside a for/range statement:
//
//   - make(...) — a fresh slice/map/chan per iteration;
//   - x = append(x, ...) where x is never reset with the pooled
//     `x = x[:0]` idiom anywhere in the same function and is not a
//     parameter (the `appendInto(buf)` pattern recycles at the
//     caller). Append into a length-reset buffer reuses its backing
//     array and is the pattern this rule exists to encourage; append
//     into a buffer that only ever grows is an allocation in disguise.
//
// The rule is scoped to the files that hold the pooled per-iteration
// machinery; construction, export, verification, and graph-rewrite
// code allocates freely off the hot path. It is advisory in spirit:
// per-run setup allocates legitimately and carries allows with the
// reason spelled out.
var ScratchReuse = &Analyzer{
	Name:     "scratchreuse",
	Doc:      "allocation (make / growing append) inside a loop in pooled planner or simulator code",
	Packages: []string{"tsplit/internal/core", "tsplit/internal/sim"},
	Run:      runScratchReuse,
}

// scratchFiles are the internal/core and internal/sim files on the
// pooled hot paths: a Plan() call or a pooled simulation
// spends its steady-state time here, so in-loop allocations in these
// files erode the near-zero allocs/op budgets. (File names don't
// collide across the two packages today; scope by package if they
// ever do.)
var scratchFiles = map[string]bool{
	// internal/core — the planner's Plan() hot path.
	"planner.go":     true,
	"candidates.go":  true,
	"candindex.go":   true,
	"incremental.go": true,
	"memsim.go":      true,
	"finalize.go":    true,
	"pool.go":        true,
	// internal/sim — the simulator's per-op event loop.
	"sim.go":       true,
	"exec.go":      true,
	"execsplit.go": true,
	"postop.go":    true,
	"simpool.go":   true,
}

func runScratchReuse(p *Pass) {
	for _, f := range p.Files {
		if !scratchFiles[baseName(p.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			reset := resliceResetNames(fn.Body)
			addParamNames(fn.Type, reset)
			checkLoopAllocs(p, fn.Body, reset, false)
		}
	}
}

// baseName is filepath.Base without the import.
func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// addParamNames marks the function's parameters as exempt append
// targets: a buffer received from the caller is the caller's to
// recycle (the residencyInto/chargesInto pattern).
func addParamNames(ft *ast.FuncType, names map[string]bool) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, id := range field.Names {
			names[id.Name] = true
		}
	}
}

// resliceResetNames collects the identifiers exempt from the growing-
// append report anywhere in the function:
//
//   - `x = x[:0]` or an `x[:0]` argument — the pooled length-reset;
//   - `y := arena[i][:0]` — a local bound to a recycled backing array;
//   - `z := make(T, 0, cap)` — pre-sized to exact capacity, so the
//     in-loop appends perform no further allocation.
func resliceResetNames(body *ast.BlockStmt) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SliceExpr:
			if isZeroReslice(s) {
				if id, ok := s.X.(*ast.Ident); ok {
					names[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, rhs := range s.Rhs {
				lhs, ok := s.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if sl, ok := rhs.(*ast.SliceExpr); ok && isZeroReslice(sl) {
					names[lhs.Name] = true
				}
				if call, ok := rhs.(*ast.CallExpr); ok && len(call.Args) == 3 {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" {
						names[lhs.Name] = true
					}
				}
			}
		}
		return true
	})
	return names
}

// isZeroReslice reports whether sl is a plain `[:0]` slice expression.
func isZeroReslice(sl *ast.SliceExpr) bool {
	if sl.Low != nil || sl.Max != nil {
		return false
	}
	high, ok := sl.High.(*ast.BasicLit)
	return ok && high.Value == "0"
}

// checkLoopAllocs walks statements, tracking whether the walk is
// inside a loop, and reports allocation sites found there.
func checkLoopAllocs(p *Pass, n ast.Node, reset map[string]bool, inLoop bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.ForStmt:
			checkLoopAllocs(p, s.Body, reset, true)
			return false
		case *ast.RangeStmt:
			checkLoopAllocs(p, s.Body, reset, true)
			return false
		case *ast.FuncLit:
			// A closure's body runs on its own schedule; its loops are
			// inspected when the walk reaches them.
			checkLoopAllocs(p, s.Body, resliceResetNames(s.Body), inLoop)
			return false
		case *ast.CallExpr:
			if !inLoop {
				return true
			}
			id, ok := s.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			switch id.Name {
			case "make":
				p.Reportf(s.Pos(), "make inside a loop in pooled planner code: hoist a reusable scratch buffer (or //lint:allow scratchreuse with a reason)")
			case "append":
				if len(s.Args) == 0 {
					return true
				}
				dst, ok := s.Args[0].(*ast.Ident)
				if !ok || reset[dst.Name] {
					return true
				}
				p.Reportf(s.Pos(), "append grows %q inside a loop and the buffer is never length-reset: reuse it with %s = %s[:0] (or //lint:allow scratchreuse with a reason)", dst.Name, dst.Name, dst.Name)
			}
		}
		return true
	})
}
