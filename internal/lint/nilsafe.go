package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NilSafe mechanizes the "nil tracer is a zero-cost no-op" contract:
// a type annotated `// lint:nilsafe` (obs.Tracer, obs.Span,
// obs.Flight, obs.Dumper) promises that calling any exported method
// on a nil pointer is a harmless no-op. Instrumented code threads a
// possibly-nil pointer through planner, simulator, and ladder
// unconditionally, so one missing guard turns "tracing disabled" into
// a panic on a hot path — something bench-guard can only spot-check
// at the call sites it happens to execute.
//
// Each pointer-receiver method's summary (nilWalk below, run by
// interp.go's summarize) walks the body
// in source order: a `if r == nil { return }` guard (or a guarded
// `if r != nil { ... }` region) must dominate every receiver
// dereference. Calling another method on the receiver counts as a
// dereference unless that method's own summary proved it nil-safe —
// the transitive case that lets obs.Tracer.WriteJSON stay guard-free
// by delegating to the guarded Tree. Unexported helpers may assume a
// non-nil receiver (they are only reachable through guarded exported
// methods, whose call sites this analysis checks); exported methods
// must guard for themselves.
var NilSafe = &Analyzer{
	Name:      "nilsafe",
	Doc:       "exported method of a lint:nilsafe type dereferences the receiver before a nil check",
	RunModule: runNilSafe,
}

func runNilSafe(mp *ModulePass) {
	for _, scc := range mp.Interp.Graph.SCCs {
		for _, fi := range scc {
			sum := mp.Interp.Summaries[fi.Fn]
			if sum.NilSafe || !fi.Decl.Name.IsExported() {
				continue
			}
			recv := fi.Fn.Type().(*types.Signature).Recv()
			named := recv.Type().(*types.Pointer).Elem().(*types.Named)
			mp.Reportf(fi.Pkg.Path, sum.nilPos,
				"%s is lint:nilsafe, but exported method %s %s before any nil-receiver check (add `if %s == nil { return ... }` first)",
				named.Obj().Name(), fi, sum.nilWhat, receiverName(fi))
		}
	}
}

func receiverName(fi *FuncInfo) string {
	if obj := receiverObj(fi); obj != nil {
		return obj.Name()
	}
	return "recv"
}

// nilSim walks a method of a lint:nilsafe type, tracking whether a
// nil-receiver guard has executed. Before the guard, any receiver
// dereference — a field selector, or a call to a method that is not
// itself nil-safe — is a contract violation. `if r == nil { return }`
// (optionally `r == nil || more`) establishes the guard when its body
// terminates; `if r != nil { ... }` guards its own body.
type nilSim struct {
	in      *Interp
	fi      *FuncInfo
	sum     *Summary
	recv    types.Object
	checked bool
}

func (in *Interp) nilWalk(fi *FuncInfo, sum *Summary) {
	recvT := fi.Fn.Type().(*types.Signature).Recv()
	if recvT == nil {
		return
	}
	ptr, ok := recvT.Type().(*types.Pointer)
	if !ok {
		return // value receiver: never nil.
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !in.Ann.NilSafe[named.Obj()] {
		return
	}
	recv := receiverObj(fi)
	if recv == nil {
		return // unnamed receiver: the body cannot dereference it.
	}
	w := &nilSim{in: in, fi: fi, sum: sum, recv: recv}
	w.stmts(fi.Decl.Body.List)
}

func (w *nilSim) deref(pos token.Pos, what string) {
	if !w.sum.NilSafe {
		return
	}
	w.sum.NilSafe = false
	w.sum.nilPos = pos
	w.sum.nilWhat = what
}

func (w *nilSim) isRecv(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return w.fi.Pkg.Info.Uses[id] == w.recv
}

func (w *nilSim) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *nilSim) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		switch kind, rest := w.guardKind(s.Cond); kind {
		case guardIsNil:
			// `if r == nil || rest { ... }`: rest only evaluates when
			// r != nil; the body may run with r nil.
			if rest != nil {
				w.withChecked(true, func() { w.expr(rest) })
			}
			w.stmt(s.Body)
			w.stmt(s.Else)
			if terminates(s.Body) && s.Else == nil {
				w.checked = true
			}
			return
		case guardNonNil:
			if rest != nil {
				w.withChecked(true, func() { w.expr(rest) })
			}
			w.withChecked(true, func() { w.stmt(s.Body) })
			w.stmt(s.Else)
			return
		default:
			w.expr(s.Cond)
			w.stmt(s.Body)
			w.stmt(s.Else)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		w.expr(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.GoStmt:
		w.expr(s.Call.Fun)
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

func (w *nilSim) withChecked(v bool, fn func()) {
	saved := w.checked
	w.checked = v || saved
	fn()
	w.checked = saved
}

type guardClass int

const (
	guardNone guardClass = iota
	guardIsNil
	guardNonNil
)

// guardKind classifies an if-condition with respect to the receiver:
// `r == nil` (possibly || rest) or `r != nil` (possibly && rest).
func (w *nilSim) guardKind(cond ast.Expr) (guardClass, ast.Expr) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone, nil
	}
	switch be.Op {
	case token.EQL, token.NEQ:
		if w.nilCompare(be) {
			if be.Op == token.EQL {
				return guardIsNil, nil
			}
			return guardNonNil, nil
		}
	case token.LOR:
		if kind, _ := w.guardKind(be.X); kind == guardIsNil {
			return guardIsNil, be.Y
		}
	case token.LAND:
		if kind, _ := w.guardKind(be.X); kind == guardNonNil {
			return guardNonNil, be.Y
		}
	}
	return guardNone, nil
}

func (w *nilSim) nilCompare(be *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (w.isRecv(be.X) && isNil(be.Y)) || (isNil(be.X) && w.isRecv(be.Y))
}

func (w *nilSim) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && w.isRecv(sel.X) && !w.checked {
			if !w.calleeNilSafe(sel.Sel) {
				w.deref(sel.Pos(), fmt.Sprintf("calls %s.%s, which dereferences the receiver", w.recv.Name(), sel.Sel.Name))
			}
			for _, a := range e.Args {
				w.expr(a)
			}
			return
		}
		w.expr(e.Fun)
		for _, a := range e.Args {
			w.expr(a)
		}
	case *ast.SelectorExpr:
		if w.isRecv(e.X) && !w.checked {
			w.deref(e.Pos(), fmt.Sprintf("accesses %s.%s", w.recv.Name(), e.Sel.Name))
			return
		}
		w.expr(e.X)
	case *ast.StarExpr:
		if w.isRecv(e.X) && !w.checked {
			w.deref(e.Pos(), fmt.Sprintf("dereferences *%s", w.recv.Name()))
			return
		}
		w.expr(e.X)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	case *ast.FuncLit:
		// The closure may run before any later guard; judge it under
		// the state at its creation point.
		w.stmts(e.Body.List)
	}
}

// calleeNilSafe reports whether calling the named method on a nil
// receiver is safe: it must be a pointer-receiver method whose summary
// proved nil-safety. Value-receiver methods auto-dereference.
func (w *nilSim) calleeNilSafe(sel *ast.Ident) bool {
	fn, ok := w.fi.Pkg.Info.Uses[sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if _, ok := recv.Type().(*types.Pointer); !ok {
		return false
	}
	sum := w.in.Summaries[fn]
	// A missing summary (mutual recursion inside one SCC, or an
	// out-of-module method) is conservatively unsafe.
	return sum != nil && sum.NilSafe
}
