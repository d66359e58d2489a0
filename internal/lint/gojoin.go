package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoJoin requires every `go` statement in the planner, simulator,
// experiment and serve packages to be provably joined. These packages
// share pooled arenas and an invalidating candidate index; a goroutine
// that outlives its spawner keeps references into recycled planner
// state, which is exactly the class of use-after-reset bug the
// PlannerPool contract excludes. Two join shapes are recognized:
//
//   - WaitGroup: the goroutine calls wg.Done() (directly, deferred, or
//     through a called function whose summary proves Done on the
//     *sync.WaitGroup argument — `go worker(&wg, i)`), and the
//     spawning function calls wg.Add(...) and has a wg.Wait() after
//     the spawn. A wg that is itself a *sync.WaitGroup parameter is
//     accepted: the caller owns the join.
//   - channel collect: the goroutine sends on a channel the spawning
//     function receives from (or ranges over) after the spawn.
//
// Anything else — a fire-and-forget goroutine, a Done with no Wait, a
// send nobody receives — is a finding.
var GoJoin = &Analyzer{
	Name: "gojoin",
	Doc:  "go statement without a provable join (WaitGroup pairing or channel collect)",
	Packages: []string{
		"tsplit/internal/core",
		"tsplit/internal/sim",
		"tsplit/internal/experiments",
		"tsplit/internal/serve",
	},
	RunModule: runGoJoin,
}

func runGoJoin(mp *ModulePass) {
	for _, scc := range mp.Interp.Graph.SCCs {
		for _, fi := range scc {
			if !mp.analyzer.appliesTo(fi.Pkg.Path) {
				continue
			}
			checkGoJoins(mp, fi)
		}
	}
}

// joinContext is what the spawning function offers: WaitGroups it
// Adds/Waits on and channels it receives from, with positions.
type joinContext struct {
	adds     map[types.Object]bool
	waits    map[types.Object][]token.Pos
	receives map[types.Object][]token.Pos
}

func checkGoJoins(mp *ModulePass, fi *FuncInfo) {
	var gos []*ast.GoStmt
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
		return true
	})
	if len(gos) == 0 {
		return
	}
	ctx := collectJoinContext(fi)
	for _, g := range gos {
		if !goJoined(mp.Interp, fi, g, ctx) {
			mp.Reportf(fi.Pkg.Path, g.Pos(),
				"goroutine spawned in %s is never joined: pair it with WaitGroup Add/Done/Wait or collect a result over a channel so it cannot outlive its spawner", fi)
		}
	}
}

func collectJoinContext(fi *FuncInfo) *joinContext {
	ctx := &joinContext{
		adds:     map[types.Object]bool{},
		waits:    map[types.Object][]token.Pos{},
		receives: map[types.Object][]token.Pos{},
	}
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := identObj(info, sel.X)
			if obj == nil {
				return true
			}
			switch sel.Sel.Name {
			case "Add":
				ctx.adds[obj] = true
			case "Wait":
				ctx.waits[obj] = append(ctx.waits[obj], n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := identObj(info, n.X); obj != nil {
					ctx.receives[obj] = append(ctx.receives[obj], n.Pos())
				}
			}
		case *ast.RangeStmt:
			if obj := identObj(info, n.X); obj != nil {
				if _, ok := info.TypeOf(n.X).Underlying().(*types.Chan); ok {
					ctx.receives[obj] = append(ctx.receives[obj], n.Pos())
				}
			}
		}
		return true
	})
	return ctx
}

// goJoined decides one go statement against the spawning function's
// join context.
func goJoined(in *Interp, fi *FuncInfo, g *ast.GoStmt, ctx *joinContext) bool {
	dones, sends := goroutineSignals(in, fi, g)
	for wg := range dones {
		// A *sync.WaitGroup parameter delegates the join to the
		// caller that owns the Add/Wait.
		if isParam(fi, wg) && isWaitGroupPtr(wg.Type()) {
			return true
		}
		if !ctx.adds[wg] {
			continue
		}
		for _, pos := range ctx.waits[wg] {
			if pos > g.Pos() {
				return true
			}
		}
	}
	for ch := range sends {
		for _, pos := range ctx.receives[ch] {
			if pos > g.Pos() {
				return true
			}
		}
	}
	return false
}

// goroutineSignals extracts the join signals a spawned goroutine
// emits: the WaitGroup objects it calls Done on and the channel
// objects it sends to.
func goroutineSignals(in *Interp, fi *FuncInfo, g *ast.GoStmt) (dones, sends map[types.Object]bool) {
	dones = map[types.Object]bool{}
	sends = map[types.Object]bool{}
	info := fi.Pkg.Info
	done := func(obj types.Object) { dones[obj] = true }

	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Done" && len(n.Args) == 0 {
					if obj := identObj(info, sel.X); obj != nil {
						done(obj)
					}
				}
				// Done through a summarized helper called inside the
				// goroutine body.
				in.doneArgs(info, n, done)
			case *ast.SendStmt:
				if obj := identObj(info, n.Chan); obj != nil {
					sends[obj] = true
				}
			}
			return true
		})
		return dones, sends
	}

	// `go worker(&wg, i)`: the callee's summary proves the Done.
	in.doneArgs(info, g.Call, done)
	return dones, sends
}

// doneArgs calls fn with the object of every argument (`wg` or `&wg`)
// that call's callee calls Done on, by the callee's interprocedural
// summary.
func (in *Interp) doneArgs(info *types.Info, call *ast.CallExpr, fn func(types.Object)) {
	c := callee(info, call)
	if c == nil {
		return
	}
	sum := in.Summaries[c]
	if sum == nil {
		return
	}
	for j, arg := range call.Args {
		if !sum.DoneParams[j] {
			continue
		}
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if obj := identObj(info, e); obj != nil {
			fn(obj)
		}
	}
}

// identObj returns the object a (parenthesized) identifier uses, or
// nil for any other expression.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// isParam reports whether obj is a parameter of fi.
func isParam(fi *FuncInfo, obj types.Object) bool {
	params := fi.Fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == obj {
			return true
		}
	}
	return false
}

// doneWalk records which *sync.WaitGroup parameters this function
// calls Done on, directly or by forwarding the parameter to a callee
// that does (the interprocedural half of the gojoin check:
// `go worker(&wg)` joins when worker's summary proves the Done).
func (in *Interp) doneWalk(fi *FuncInfo, sum *Summary) {
	sig := fi.Fn.Type().(*types.Signature)
	wgParams := map[types.Object]int{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isWaitGroupPtr(params.At(i).Type()) {
			// Map the declaration object via the AST parameter list so
			// body identifiers resolve to it.
			wgParams[params.At(i)] = i
		}
	}
	if len(wgParams) == 0 {
		return
	}
	info := fi.Pkg.Info
	done := func(obj types.Object) {
		if idx, ok := wgParams[obj]; ok {
			sum.DoneParams[idx] = true
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(call.Args) == 0 {
			done(identObj(info, sel.X))
			return true
		}
		// Forwarding: wg passed to a callee whose summary calls Done
		// on that parameter.
		in.doneArgs(info, call, done)
		return true
	})
}

func isWaitGroupPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
