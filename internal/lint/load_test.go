package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module on disk for loader
// tests. Keys are module-relative slash paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const testGoMod = "module example.com/m\n\ngo 1.22\n"

// otherGOOS returns a GOOS that is not the one the test runs under,
// for exercising filename- and tag-based exclusion.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}

func TestLoadModuleSkipsBuildTagExcludedFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a.go":   "package m\n\nfunc Kept() {}\n",
		// Both excluded files redeclare Kept: if either were loaded,
		// type-checking would fail, so a successful load proves the
		// exclusion, not just the symbol lookup below.
		"b.go":                     "//go:build " + otherGOOS() + "\n\npackage m\n\nfunc Kept() {}\nfunc TagExcluded() {}\n",
		"c_" + otherGOOS() + ".go": "package m\n\nfunc Kept() {}\nfunc SuffixExcluded() {}\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(mod.Pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(mod.Pkgs))
	}
	scope := mod.Pkgs[0].Types.Scope()
	if scope.Lookup("Kept") == nil {
		t.Errorf("Kept should be loaded")
	}
	if scope.Lookup("TagExcluded") != nil {
		t.Errorf("file excluded by //go:build tag was loaded")
	}
	if scope.Lookup("SuffixExcluded") != nil {
		t.Errorf("file excluded by _GOOS suffix was loaded")
	}
}

func TestLoadModuleSkipsTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a.go":   "package m\n\nfunc Kept() {}\n",
		// A _test.go file that would not even parse: proof it is
		// skipped before the parser sees it.
		"a_test.go": "package m\n\nfunc broken( {\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule should skip _test.go files: %v", err)
	}
	if mod.Pkgs[0].Types.Scope().Lookup("Kept") == nil {
		t.Errorf("Kept should be loaded")
	}
	for _, f := range mod.Pkgs[0].Files {
		name := mod.Pkgs[0].Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded", name)
		}
	}
}

func TestLoadModuleReportsSyntaxErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     testGoMod,
		"sub/bad.go": "package sub\n\nfunc broken( {\n",
	})
	_, err := LoadModule(dir)
	if err == nil {
		t.Fatal("LoadModule should report the syntax error, not succeed")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("error should name the broken file: %v", err)
	}
}

func TestLoadModuleReportsTypeErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a.go":   "package m\n\nfunc f() { undefinedSymbol() }\n",
	})
	_, err := LoadModule(dir)
	if err == nil {
		t.Fatal("LoadModule should report the type error")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("error should come from the type checker: %v", err)
	}
}

func TestLoadModuleDirsAndOrder(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     testGoMod,
		"root.go":    "package m\n",
		"zz/z.go":    "package zz\n",
		"aa/a.go":    "package aa\n",
		"aa/bb/b.go": "package bb\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var got []string
	for _, p := range mod.Pkgs {
		got = append(got, p.Path+"="+p.Dir)
	}
	want := []string{
		"example.com/m=.",
		"example.com/m/aa=aa",
		"example.com/m/aa/bb=aa/bb",
		"example.com/m/zz=zz",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("packages/dirs:\n got %v\nwant %v", got, want)
	}
}

func TestAudit(t *testing.T) {
	src := `//lint:allow clockdet generated demo file
package core

func f(m map[int]int) {
	//lint:allow maporder,errdrop commutative aggregation
	for range m {
	}
	//lint:allow floateq
	_ = m
	//lint:allow maporder,retiredrule kept after its rule was deleted
	_ = m
}`
	pkg := checkSrc(t, corePath, "audit_case.go", src)
	sites, missing := Audit([]*Package{pkg})
	if len(sites) != 4 {
		t.Fatalf("want 4 allow sites, got %v", sites)
	}
	if !sites[0].FileWide || sites[0].Reason != "generated demo file" || sites[0].Rules[0] != "clockdet" {
		t.Errorf("file-wide site parsed wrong: %+v", sites[0])
	}
	if sites[1].FileWide || sites[1].Reason != "commutative aggregation" ||
		len(sites[1].Rules) != 2 || sites[1].Rules[1] != "errdrop" {
		t.Errorf("multi-rule site parsed wrong: %+v", sites[1])
	}
	if sites[2].Reason != "" {
		t.Errorf("reasonless site should have empty reason: %+v", sites[2])
	}
	if len(missing) != 2 || missing[0].Rule != "lint-audit" || missing[0].Line != sites[2].Line {
		t.Fatalf("want lint-audit findings at the reasonless and the unknown-rule sites, got %v", missing)
	}
	// A reasoned allow naming a rule the suite does not have is a
	// finding too, for that rule only: a retired rule leaves no dead
	// suppression behind.
	if missing[1].Rule != "lint-audit" || missing[1].Line != sites[3].Line ||
		!strings.Contains(missing[1].Message, `"retiredrule"`) || strings.Contains(missing[1].Message, "maporder") {
		t.Errorf("unknown-rule finding: %v", missing[1])
	}
	if !strings.Contains(sites[2].String(), "MISSING REASON") {
		t.Errorf("listing should call out the missing reason: %s", sites[2])
	}
}
