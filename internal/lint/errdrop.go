package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags call statements that silently discard an error result.
// A swallowed error in the planner or runtime turns an invariant
// violation (OOM, unschedulable graph, failed export) into silent
// divergence — the verifier can only catch what reaches it. Assigning
// the error to `_` is treated as an explicit, reviewable
// acknowledgment and is not flagged, nor are deferred cleanups —
// with one exception: `defer f.Close()` on an *os.File opened for
// writing. There the Close error is the write: buffered data is
// flushed at Close, and dropping it silently truncates the exported
// plan or metrics file. Close explicitly and return the error (see
// the write-then-Close helpers in the cmd/ tools), or suppress it
// inside a deferred closure with `_ = f.Close()` where a best-effort
// write is genuinely acceptable.
//
// Calls that cannot fail in practice are exempt: fmt.Print* to stdout,
// and any write to strings.Builder / bytes.Buffer (their Write methods
// are documented to always return a nil error).
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "call statement discards an error result",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range p.Files {
		writable := writableFiles(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				checkDeferredClose(p, d, writable)
				return true
			}
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			t := p.TypeOf(call)
			if t == nil || !resultHasError(t, errType) {
				return true
			}
			if errExempt(p, call) {
				return true
			}
			p.Reportf(call.Pos(), "%s returns an error that is silently discarded (handle it or assign to _)", calleeName(p, call))
			return true
		})
	}
}

// writableFiles collects the *os.File variables in f that were opened
// for writing: assigned from os.Create, or from os.OpenFile with a
// flag expression mentioning any write-mode flag.
func writableFiles(p *Pass, f *ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(p.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		switch fn.Name() {
		case "Create":
		case "OpenFile":
			if len(call.Args) < 2 || !hasWriteFlag(p, call.Args[1]) {
				return true
			}
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// hasWriteFlag reports whether a flag expression names any os.O_*
// write-mode flag (O_WRONLY, O_RDWR, O_APPEND, O_CREATE, O_TRUNC).
func hasWriteFlag(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := p.Info.Uses[sel.Sel].(*types.Const)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
			return true
		}
		switch obj.Name() {
		case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
			found = true
		}
		return true
	})
	return found
}

// checkDeferredClose flags `defer f.Close()` when f was opened for
// writing in this file.
func checkDeferredClose(p *Pass, d *ast.DeferStmt, writable map[types.Object]bool) {
	sel, ok := d.Call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj := p.Info.Uses[id]
	if obj == nil || !writable[obj] {
		return
	}
	p.Reportf(d.Call.Pos(),
		"deferred Close on %s discards the flush error of a file opened for writing (close explicitly and return the error, or suppress with _ = %s.Close() in a deferred closure)",
		id.Name, id.Name)
}

func resultHasError(t types.Type, errType types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// callee resolves the called function object, when statically known.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

func calleeName(p *Pass, call *ast.CallExpr) string {
	if fn := callee(p.Info, call); fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return types.TypeString(recv.Type(), types.RelativeTo(p.Pkg)) + "." + fn.Name()
		}
		if fn.Pkg() != nil && fn.Pkg() != p.Pkg {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}

// errExempt reports whether the call's discarded error is conventional:
// printing to stdout/stderr, or writing into an in-memory buffer.
func errExempt(p *Pass, call *ast.CallExpr) bool {
	fn := callee(p.Info, call)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return isBufferType(recv.Type())
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	switch fn.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		if isBufferType(p.TypeOf(call.Args[0])) {
			return true
		}
		// fmt.Fprintf(os.Stdout, ...) / os.Stderr: same convention as
		// fmt.Printf.
		if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
			if obj, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && obj.Pkg() != nil &&
				obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
				return true
			}
		}
	}
	return false
}

// isBufferType matches strings.Builder and bytes.Buffer (and pointers
// to them), whose writes never fail.
func isBufferType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer")
}
