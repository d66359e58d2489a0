package lint

import (
	"os"
	"os/exec"
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

func TestChangedPackages(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	const dropsErr = "\n\nimport \"os\"\n\nfunc F() { os.Remove(\"x\") }\n"
	dir := writeModule(t, map[string]string{
		"go.mod":   testGoMod,
		"a/a.go":   "package a\n",
		"b/b.go":   "package b" + dropsErr,
		"b/doc.md": "prose\n",
	})
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{
			"-C", dir, "-c", "user.email=t@t", "-c", "user.name=t",
		}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "seed")

	// Unstaged change in a (a dropped error, like the one committed in
	// b), untracked .go file in a new dir c, and a non-.go change in b
	// (which must NOT mark b as changed).
	if err := os.WriteFile(filepath.Join(dir, "a/a.go"), []byte("package a"+dropsErr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "c"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c/c.go"), []byte("package c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b/doc.md"), []byte("edited prose\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkgs, err := ChangedPackages(mod, "HEAD")
	if err != nil {
		t.Fatalf("ChangedPackages: %v", err)
	}
	if !pkgs["example.com/m/a"] {
		t.Errorf("modified package a should be changed: %v", pkgs)
	}
	if !pkgs["example.com/m/c"] {
		t.Errorf("untracked package c should be changed: %v", pkgs)
	}
	if pkgs["example.com/m/b"] {
		t.Errorf("non-.go change must not mark package b: %v", pkgs)
	}

	// Within narrows reporting to the changed set: a's finding stays,
	// unchanged b's is dropped.
	all := Run(mod.Pkgs, Analyzers())
	if len(all) != 2 {
		t.Fatalf("want one errdrop finding each in a and b, got %v", all)
	}
	diags := mod.Within(all, pkgs)
	if len(diags) != 1 || diags[0].Rule != "errdrop" || filepath.Base(diags[0].File) != "a.go" {
		t.Errorf("Within kept %v, want only a's errdrop finding", diags)
	}
}

func TestChangedPackagesFailsOutsideGit(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := writeModule(t, map[string]string{"go.mod": testGoMod, "a.go": "package m\n"})
	// Guard against an enclosing repository above t.TempDir.
	if out, err := exec.Command("git", "-C", dir, "rev-parse", "--git-dir").CombinedOutput(); err == nil {
		t.Skipf("temp dir is inside a git repository (%s)", strings.TrimSpace(string(out)))
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if _, err := ChangedPackages(mod, "HEAD"); err == nil {
		t.Fatal("ChangedPackages outside a repository should error (the CLI falls back to a full run)")
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
