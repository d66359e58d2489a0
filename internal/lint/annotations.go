package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Locking contracts are declared in source as annotation comments:
//
//	type Registry struct {
//		mu     sync.RWMutex
//		series map[string]*series // lint:guardedby mu
//	}
//
// `lint:guardedby <lock>` on a struct field names a sibling field of
// type sync.Mutex / sync.RWMutex (value or pointer) that must be held
// whenever the annotated field is read (RLock or Lock) or written
// (Lock only).

var guardedByRe = regexp.MustCompile(`//\s*lint:guardedby\s+([A-Za-z_][A-Za-z0-9_]*)`)

// GuardSpec is one parsed `lint:guardedby` annotation.
type GuardSpec struct {
	// Lock is the sibling field name that guards the annotated field.
	Lock string
	// Owner is the struct's named type, when the field belongs to one
	// (used in diagnostics).
	Owner *types.Named
}

// annProblem is a malformed annotation, reported by the guardedby
// analyzer (a contract that cannot be checked must not silently pass).
type annProblem struct {
	pkg  string
	pos  token.Pos
	msg  string
	rule string
}

// Annotations is the module's parsed contract set.
type Annotations struct {
	// Guarded maps an annotated struct field object to its guard spec.
	Guarded map[*types.Var]*GuardSpec
	// Problems are malformed annotations.
	Problems []annProblem
}

// collectAnnotations parses every guardedby annotation in the module.
func collectAnnotations(pkgs []*Package) *Annotations {
	ann := &Annotations{Guarded: map[*types.Var]*GuardSpec{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					ann.collectType(pkg, ts)
				}
			}
		}
	}
	return ann
}

func (ann *Annotations) collectType(pkg *Package, ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		lock, pos, ok := guardAnnotation(field)
		if !ok {
			continue
		}
		spec, problem := ann.resolveGuard(pkg, ts, st, lock)
		if problem != "" {
			ann.Problems = append(ann.Problems, annProblem{
				pkg: pkg.Path, pos: pos, msg: problem, rule: "guardedby",
			})
			continue
		}
		for _, name := range field.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				ann.Guarded[v] = spec
			}
		}
		if len(field.Names) == 0 {
			ann.Problems = append(ann.Problems, annProblem{
				pkg: pkg.Path, pos: pos, rule: "guardedby",
				msg: "lint:guardedby on an embedded field is not supported; name the field",
			})
		}
	}
}

// guardAnnotation extracts the lock name from a field's doc or trailing
// comment.
func guardAnnotation(field *ast.Field) (lock string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedByRe.FindStringSubmatch(c.Text); m != nil {
				return m[1], c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// resolveGuard validates that lock names a sibling mutex field and
// classifies it.
func (ann *Annotations) resolveGuard(pkg *Package, ts *ast.TypeSpec, st *ast.StructType, lock string) (*GuardSpec, string) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != lock {
				continue
			}
			t := pkg.Info.TypeOf(field.Type)
			if _, ok := mutexKind(t); !ok {
				return nil, fmt.Sprintf("lint:guardedby %s: field %s is %s, not a sync.Mutex or sync.RWMutex", lock, lock, t)
			}
			spec := &GuardSpec{Lock: lock}
			if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
				spec.Owner, _ = tn.Type().(*types.Named)
			}
			return spec, ""
		}
	}
	return nil, fmt.Sprintf("lint:guardedby %s: no field named %s in this struct", lock, lock)
}

// mutexKind reports whether t is sync.Mutex / sync.RWMutex (or a
// pointer to one); rw distinguishes the RWMutex.
func mutexKind(t types.Type) (rw, ok bool) {
	if t == nil {
		return false, false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch named.Obj().Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}
