package tsplit_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden from tsplit.go")

// TestPublicSurface pins the root package's exported surface: every
// exported top-level name in tsplit.go plus *Workload's methods,
// sorted, against testdata/api.golden. A new export is then a
// deliberate one-line golden diff (go test -run TestPublicSurface
// -update), never a silent regrowth.
func TestPublicSurface(t *testing.T) {
	const path = "testdata/api.golden"
	f, err := parser.ParseFile(token.NewFileSet(), "tsplit.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				names = append(names, d.Name.Name)
			case isWorkloadPtr(d.Recv.List[0].Type):
				names = append(names, "(*Workload)."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	got := strings.Join(names, "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("public surface changed; got\n%s\nwant\n%s", got, want)
	}
}

func isWorkloadPtr(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Workload"
}
