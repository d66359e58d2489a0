package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Interp is the shared interprocedural state built once per lint run:
// the module call graph, the parsed contract annotations, and one
// Summary per declared function, computed bottom-up over the call
// graph's strongly connected components so every summary can consult
// its callees' summaries.
type Interp struct {
	Graph     *CallGraph
	Ann       *Annotations
	Summaries map[*types.Func]*Summary
}

// lockMode orders lock strength: holding lockWrite satisfies a
// lockRead requirement, not vice versa.
type lockMode int

const (
	lockNone lockMode = iota
	lockRead
	lockWrite
)

func (m lockMode) String() string {
	if m == lockWrite {
		return "exclusively (Lock)"
	}
	return "for reading (RLock or Lock)"
}

// lockKey identifies a lock (or lock-owning object) instance inside
// one function: the root object a selector chain starts from plus the
// printed field path ("mu", "inner.mu"). Keying on the root
// types.Object makes the tracking shadowing-safe.
type lockKey struct {
	root types.Object
	path string
}

func (k lockKey) child(name string) lockKey {
	if k.path == "" {
		return lockKey{root: k.root, path: name}
	}
	return lockKey{root: k.root, path: k.path + "." + name}
}

// guardViol is one definite guardedby violation.
type guardViol struct {
	pkg string
	pos token.Pos
	msg string
}

// reqSite records a guarded receiver-field access that produced a
// caller-must-hold requirement.
type reqSite struct {
	pos   token.Pos
	field string
	need  lockMode
}

// Summary is the per-function contract summary the analyzers consume.
type Summary struct {
	FI *FuncInfo

	// Requires maps a receiver lock-field name to the mode callers
	// must hold when calling this function: the function accesses
	// guarded receiver fields (directly or through callees) without
	// taking the lock itself.
	Requires map[string]lockMode
	reqSites map[string][]reqSite

	// Violations are definite guardedby violations inside this body
	// (unguarded access on a non-receiver object, or a call site that
	// fails a callee's requirement).
	Violations []guardViol
}

// NewInterp builds the call graph, parses annotations, and computes
// all function summaries bottom-up.
func NewInterp(pkgs []*Package) *Interp {
	in := &Interp{
		Graph:     buildCallGraph(pkgs),
		Ann:       collectAnnotations(pkgs),
		Summaries: map[*types.Func]*Summary{},
	}
	for _, scc := range in.Graph.SCCs {
		for _, fi := range scc {
			in.Summaries[fi.Fn] = in.summarize(fi)
		}
	}
	return in
}

func (in *Interp) summarize(fi *FuncInfo) *Summary {
	sum := &Summary{
		FI:       fi,
		Requires: map[string]lockMode{},
		reqSites: map[string][]reqSite{},
	}
	in.lockWalk(fi, sum)
	in.finishRequires(fi, sum)
	return sum
}

// receiverObj returns the declared receiver variable object, or nil.
func receiverObj(fi *FuncInfo) types.Object {
	if fi.Decl.Recv == nil || len(fi.Decl.Recv.List) == 0 {
		return nil
	}
	names := fi.Decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return fi.Pkg.Info.Defs[names[0]]
}

// finishRequires decides whether a non-empty requirement set is
// legitimate (an unexported locked-context helper whose call sites are
// all visible and checked) or a violation in its own right: exported
// methods, address-taken functions, interface implementations invoked
// dynamically, and functions with no in-module callers have caller
// sets the analysis cannot vouch for, so "my caller holds the lock"
// is not a proof there.
func (in *Interp) finishRequires(fi *FuncInfo, sum *Summary) {
	if len(sum.Requires) == 0 {
		return
	}
	reason := ""
	switch {
	case fi.Decl.Name.IsExported():
		reason = "it is exported, so callers outside the module cannot be assumed to hold the lock"
	case fi.AddressTaken:
		reason = "its identifier escapes as a value, so its caller set is unknown"
	case len(fi.Callers) == 0:
		reason = "it has no in-module callers to prove the lock is held"
	default:
		for _, e := range fi.Callers {
			if e.ViaInterface {
				reason = "it is reachable through an interface call, so its caller set is unknown"
				break
			}
		}
	}
	if reason == "" {
		return // unexported helper: every call site is checked by its caller's walk.
	}
	locks := make([]string, 0, len(sum.Requires))
	for l := range sum.Requires {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	for _, l := range locks {
		for _, site := range sum.reqSites[l] {
			sum.Violations = append(sum.Violations, guardViol{
				pkg: fi.Pkg.Path, pos: site.pos,
				msg: fmt.Sprintf("field %s is guarded by %q (lint:guardedby) and must be held %s; %s does not hold it and %s",
					site.field, l, site.need, fi, reason),
			})
		}
	}
	sum.Requires = map[string]lockMode{}
}

// ---------------------------------------------------------------------
// guardedby: lock-set simulation
// ---------------------------------------------------------------------

// lockSim walks one function body in source order, tracking the set of
// held locks. The simulation is linear (a lint approximation, not a
// dataflow fixpoint) with two refinements that match real locking
// style: a branch that terminates (returns, panics, breaks) has its
// lock-state changes discarded, and `defer mu.Unlock()` leaves the
// lock held for the rest of the body. Objects freshly constructed in
// this function (`s = &series{...}`) are exempt until they escape —
// an unpublished object needs no lock.
type lockSim struct {
	in    *Interp
	fi    *FuncInfo
	sum   *Summary
	recv  types.Object
	held  map[lockKey]lockMode
	fresh map[types.Object]bool
}

func (in *Interp) lockWalk(fi *FuncInfo, sum *Summary) {
	w := &lockSim{
		in: in, fi: fi, sum: sum,
		recv: receiverObj(fi),
		held: map[lockKey]lockMode{}, fresh: map[types.Object]bool{},
	}
	w.stmts(fi.Decl.Body.List)
}

func (w *lockSim) typeOf(e ast.Expr) types.Type { return w.fi.Pkg.Info.TypeOf(e) }

func (w *lockSim) objOf(id *ast.Ident) types.Object {
	if o := w.fi.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return w.fi.Pkg.Info.Defs[id]
}

// keyOf renders a selector chain rooted at an identifier into a
// trackable lock key.
func (w *lockSim) keyOf(e ast.Expr) (lockKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			return lockKey{root: obj}, true
		}
	case *ast.SelectorExpr:
		if k, ok := w.keyOf(e.X); ok {
			return k.child(e.Sel.Name), true
		}
	case *ast.StarExpr:
		return w.keyOf(e.X)
	}
	return lockKey{}, false
}

func (w *lockSim) copyHeld() map[lockKey]lockMode {
	cp := make(map[lockKey]lockMode, len(w.held))
	for k, v := range w.held {
		cp[k] = v
	}
	return cp
}

func (w *lockSim) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockSim) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X, lockRead)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.IncDecStmt:
		w.expr(s.X, lockWrite)
	case *ast.DeferStmt:
		w.deferStmt(s)
	case *ast.GoStmt:
		// The goroutine runs concurrently: judge its body with an
		// empty lock set, and its lock operations do not affect us.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sub := &lockSim{in: w.in, fi: w.fi, sum: w.sum, recv: w.recv,
				held: map[lockKey]lockMode{}, fresh: map[types.Object]bool{}}
			sub.stmts(fl.Body.List)
		} else {
			w.expr(s.Call.Fun, lockRead)
		}
		for _, a := range s.Call.Args {
			w.expr(a, lockRead)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, lockRead)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond, lockRead)
		saved := w.copyHeld()
		w.stmt(s.Body)
		if terminates(s.Body) {
			w.held = saved
		}
		if s.Else != nil {
			saved = w.copyHeld()
			w.stmt(s.Else)
			if b, ok := s.Else.(*ast.BlockStmt); ok && terminates(b) {
				w.held = saved
			}
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond, lockRead)
		}
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X, lockRead)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag, lockRead)
		}
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.clauses(s.Body)
	case *ast.SelectStmt:
		w.clauses(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan, lockRead)
		w.expr(s.Value, lockRead)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					w.expr(v, lockRead)
				}
			}
		}
	}
}

// clauses processes each case/comm clause of a switch or select
// against the pre-switch lock state: the branches are alternatives, so
// none of their lock mutations is assumed afterwards.
func (w *lockSim) clauses(body *ast.BlockStmt) {
	saved := w.copyHeld()
	for _, c := range body.List {
		w.held = saved
		saved = w.copyHeld()
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e, lockRead)
			}
			w.stmts(c.Body)
		case *ast.CommClause:
			w.stmt(c.Comm)
			w.stmts(c.Body)
		}
	}
	w.held = saved
}

func (w *lockSim) assign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		w.expr(r, lockRead)
	}
	for i, l := range s.Lhs {
		w.expr(l, lockWrite)
		// Freshness tracking: a local bound to a composite literal is
		// an unpublished object; any other assignment (or use on a
		// RHS, see expr) clears it.
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.objOf(id)
		if obj == nil {
			continue
		}
		if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) && isFreshValue(s.Rhs[i]) {
			w.fresh[obj] = true
		} else {
			delete(w.fresh, obj)
		}
	}
}

// isFreshValue matches &T{...} and T{...} construction expressions.
func isFreshValue(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

func (w *lockSim) deferStmt(s *ast.DeferStmt) {
	call := s.Call
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 0 {
		if sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock" {
			if _, ok := mutexKind(w.typeOf(sel.X)); ok {
				return // deferred unlock: the lock stays held to the end.
			}
		}
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		// A deferred closure runs at return time; in the dominant
		// Lock+defer style the current lock set still holds then.
		sub := &lockSim{in: w.in, fi: w.fi, sum: w.sum, recv: w.recv,
			held: w.copyHeld(), fresh: w.fresh}
		sub.stmts(fl.Body.List)
		return
	}
	// Arguments are evaluated now; the call itself runs later, so
	// callee lock requirements are not checked against today's state.
	for _, a := range call.Args {
		w.expr(a, lockRead)
	}
}

func (w *lockSim) expr(e ast.Expr, mode lockMode) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident, *ast.BasicLit:
		// Field accesses are always selector expressions in Go, so a
		// bare identifier is never a guarded access.
	case *ast.SelectorExpr:
		w.checkFieldAccess(e, mode)
		w.expr(e.X, lockRead)
	case *ast.CallExpr:
		w.call(e)
	case *ast.IndexExpr:
		w.expr(e.X, mode)
		w.expr(e.Index, lockRead)
	case *ast.IndexListExpr:
		w.expr(e.X, mode)
		for _, i := range e.Indices {
			w.expr(i, lockRead)
		}
	case *ast.SliceExpr:
		w.expr(e.X, mode)
		w.expr(e.Low, lockRead)
		w.expr(e.High, lockRead)
		w.expr(e.Max, lockRead)
	case *ast.StarExpr:
		w.expr(e.X, mode)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			w.expr(e.X, lockWrite) // &x.f: the pointer may be written through
		} else {
			w.expr(e.X, lockRead)
		}
	case *ast.BinaryExpr:
		w.expr(e.X, lockRead)
		w.expr(e.Y, lockRead)
	case *ast.ParenExpr:
		w.expr(e.X, mode)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, lockRead)
			} else {
				w.expr(el, lockRead)
			}
		}
	case *ast.FuncLit:
		// Synchronously invoked or escaping closure: judge it against
		// the current lock set (sound for the common sort.Slice /
		// immediate-invoke shapes; `go` closures are handled in stmt).
		sub := &lockSim{in: w.in, fi: w.fi, sum: w.sum, recv: w.recv,
			held: w.copyHeld(), fresh: map[types.Object]bool{}}
		sub.stmts(e.Body.List)
	case *ast.TypeAssertExpr:
		w.expr(e.X, lockRead)
	case *ast.KeyValueExpr:
		w.expr(e.Value, lockRead)
	}
}

// call handles Lock/Unlock recognition and callee-requirement checks.
func (w *lockSim) call(call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 0 {
		rw, isMutex := mutexKind(w.typeOf(sel.X))
		if isMutex {
			key, trackable := w.keyOf(sel.X)
			if trackable {
				switch sel.Sel.Name {
				case "Lock":
					w.held[key] = lockWrite
				case "RLock":
					if rw {
						w.held[key] = lockRead
					}
				case "Unlock", "RUnlock":
					delete(w.held, key)
				case "TryLock":
					// Result-dependent; the linear model cannot track it.
				}
			}
			return
		}
	}
	w.checkCalleeRequires(call)
	w.expr(call.Fun, lockRead)
	for _, a := range call.Args {
		w.expr(a, lockRead)
	}
}

// checkCalleeRequires verifies a callee's lock requirements against
// the current lock set, propagating unprovable receiver requirements
// into this function's own summary.
func (w *lockSim) checkCalleeRequires(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return // requirements only arise on methods, which need a receiver
	}
	fn, ok := w.fi.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sum := w.in.Summaries[fn]
	if sum == nil || len(sum.Requires) == 0 {
		return
	}
	recvKey, trackable := w.keyOf(sel.X)
	locks := make([]string, 0, len(sum.Requires))
	for l := range sum.Requires {
		locks = append(locks, l)
	}
	sort.Strings(locks)
	for _, lock := range locks {
		need := sum.Requires[lock]
		if trackable {
			if have := w.held[recvKey.child(lock)]; have >= need {
				continue
			}
			if w.recv != nil && recvKey.root == w.recv && recvKey.path == "" {
				// Propagate: our caller must hold the receiver's lock.
				if w.sum.Requires[lock] < need {
					w.sum.Requires[lock] = need
				}
				w.sum.reqSites[lock] = append(w.sum.reqSites[lock], w.calleeReqSites(sum, lock)...)
				continue
			}
		}
		w.sum.Violations = append(w.sum.Violations, guardViol{
			pkg: w.fi.Pkg.Path, pos: call.Pos(),
			msg: fmt.Sprintf("call to %s requires %q held %s (it accesses lint:guardedby fields), but the lock is not held here",
				sum.FI, lock, need),
		})
	}
}

// calleeReqSites rewrites a callee's requirement sites as our own,
// anchored at the sites inside the callee (more precise than the call
// position for the eventual report).
func (w *lockSim) calleeReqSites(callee *Summary, lock string) []reqSite {
	sites := callee.reqSites[lock]
	out := make([]reqSite, len(sites))
	copy(out, sites)
	return out
}

// checkFieldAccess judges one selector against the guardedby table.
func (w *lockSim) checkFieldAccess(sel *ast.SelectorExpr, mode lockMode) {
	v, ok := w.fi.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	// Origin: inside a generic type's methods a field resolves to the
	// instantiated type's copy of the declared *types.Var.
	spec := w.in.Ann.Guarded[v.Origin()]
	if spec == nil {
		return
	}
	baseKey, trackable := w.keyOf(sel.X)
	if trackable && baseKey.path == "" && w.fresh[baseKey.root] {
		return // freshly constructed, unpublished object: no lock needed.
	}
	need := lockRead
	if mode == lockWrite {
		need = lockWrite
	}
	if trackable {
		if have := w.held[baseKey.child(spec.Lock)]; have >= need {
			return
		}
		if w.recv != nil && baseKey.root == w.recv && baseKey.path == "" {
			if w.sum.Requires[spec.Lock] < need {
				w.sum.Requires[spec.Lock] = need
			}
			w.sum.reqSites[spec.Lock] = append(w.sum.reqSites[spec.Lock],
				reqSite{pos: sel.Pos(), field: fieldDesc(v, spec), need: need})
			return
		}
	}
	w.sum.Violations = append(w.sum.Violations, guardViol{
		pkg: w.fi.Pkg.Path, pos: sel.Pos(),
		msg: fmt.Sprintf("field %s is guarded by %q (lint:guardedby) and must be held %s here",
			fieldDesc(v, spec), spec.Lock, need),
	})
}

func fieldDesc(v *types.Var, spec *GuardSpec) string {
	if spec.Owner != nil {
		return spec.Owner.Obj().Name() + "." + v.Name()
	}
	return v.Name()
}

// terminates reports whether a block always transfers control out of
// the enclosing flow: its last statement is a return, branch, or a
// call that never returns (panic, os.Exit, log.Fatal*).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln"
			}
		}
	}
	return false
}
