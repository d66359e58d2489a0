package lint

import (
	"go/ast"
	"go/types"
)

// The interprocedural layer starts from a module-level call graph over
// go/types objects. Nodes are the functions and methods *declared in
// the module* (bodies we can see); edges are resolved statically:
//
//   - direct calls (`f(x)`, `pkg.F(x)`) through Info.Uses;
//   - method calls on concrete receivers (`r.m()`) through
//     Info.Selections;
//   - method calls on interface receivers, resolved to every in-module
//     named type whose method set implements the interface — each
//     implementation gets an edge, and the edge is marked ViaInterface
//     so consumers know the target set is a superset, not an identity.
//
// Calls through function values, reflection, or out-of-module
// interfaces have no edges; a function whose identifier escapes as a
// value is marked AddressTaken so analyses that reason about "all
// callers" (guardedby's caller-holds-the-lock proofs) refuse to trust
// the static caller list for it.

// FuncInfo is one module function in the call graph.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees/Callers are the static edges touching this function.
	Callees []*CallEdge
	Callers []*CallEdge

	// AddressTaken is set when the function's identifier is used
	// other than as the operand of a call: passed as a value, stored
	// in a field, bound as a method value. Its static caller list is
	// then incomplete by construction.
	AddressTaken bool

	// scc is the index of this function's strongly connected
	// component in CallGraph.SCCs.
	scc int
}

// String renders the function for diagnostics ("(*Registry).get").
func (fi *FuncInfo) String() string {
	fn := fi.Fn
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg())) + ")." + fn.Name()
	}
	return fn.Name()
}

// CallEdge is one static call site.
type CallEdge struct {
	Callee *FuncInfo
	// ViaInterface marks edges added by interface-implementation
	// resolution: the callee is a *possible* target, not the proven one.
	ViaInterface bool
}

// CallGraph is the module call graph plus its condensation order.
type CallGraph struct {
	Funcs map[*types.Func]*FuncInfo
	// SCCs lists the strongly connected components bottom-up: every
	// callee's component appears before its callers' (Tarjan emits
	// them in reverse topological order of the condensation).
	SCCs [][]*FuncInfo
}

// buildCallGraph collects the module's declared functions and resolves
// the static call edges between them.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: map[*types.Func]*FuncInfo{}}
	var order []*FuncInfo // deterministic: declaration order across sorted packages
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				g.Funcs[fn] = fi
				order = append(order, fi)
			}
		}
	}

	named := moduleNamedTypes(pkgs)
	for _, fi := range order {
		g.addEdges(fi, named)
	}
	g.markAddressTaken(pkgs)
	g.computeSCCs(order)
	return g
}

// moduleNamedTypes lists every named (defined) type declared in the
// module, the candidate set for interface-call resolution.
func moduleNamedTypes(pkgs []*Package) []*types.Named {
	var out []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// addEdges walks fi's body and records one edge per statically
// resolvable call site.
func (g *CallGraph) addEdges(fi *FuncInfo, named []*types.Named) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				g.link(fi, fn, false)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					g.linkInterface(fi, sel.Recv(), fun.Sel.Name, named)
				} else if fn, ok := sel.Obj().(*types.Func); ok {
					g.link(fi, fn, false)
				}
				return true
			}
			// Qualified call: pkg.F(...).
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				g.link(fi, fn, false)
			}
		}
		return true
	})
}

func (g *CallGraph) link(caller *FuncInfo, callee *types.Func, viaIface bool) {
	ci, ok := g.Funcs[callee]
	if !ok {
		return // out-of-module target
	}
	e := &CallEdge{Callee: ci, ViaInterface: viaIface}
	caller.Callees = append(caller.Callees, e)
	ci.Callers = append(ci.Callers, e)
}

// linkInterface resolves a call through interface type iface to every
// in-module named type implementing it, edge-marked ViaInterface.
func (g *CallGraph) linkInterface(caller *FuncInfo, iface types.Type, method string, named []*types.Named) {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(n, it) && !types.Implements(ptr, it) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		sel := ms.Lookup(n.Obj().Pkg(), method)
		if sel == nil {
			continue
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			g.link(caller, fn, true)
		}
	}
}

// markAddressTaken flags module functions whose identifier appears
// outside call position.
func (g *CallGraph) markAddressTaken(pkgs []*Package) {
	for _, pkg := range pkgs {
		// Idents that are the operand of a call (f in f(), m in x.m()).
		callPos := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					callPos[fun] = true
				case *ast.SelectorExpr:
					callPos[fun.Sel] = true
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || callPos[id] {
					return true
				}
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					if fi, ok := g.Funcs[fn]; ok {
						fi.AddressTaken = true
					}
				}
				return true
			})
		}
	}
}

// computeSCCs runs Tarjan's algorithm over the caller→callee edges.
// Components are emitted callees-first, which is exactly the bottom-up
// order the summary computation needs.
func (g *CallGraph) computeSCCs(order []*FuncInfo) {
	index := map[*FuncInfo]int{}
	low := map[*FuncInfo]int{}
	onStack := map[*FuncInfo]bool{}
	var stack []*FuncInfo
	next := 0

	var strongconnect func(v *FuncInfo)
	strongconnect = func(v *FuncInfo) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range v.Callees {
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*FuncInfo
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				w.scc = len(g.SCCs)
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
}
