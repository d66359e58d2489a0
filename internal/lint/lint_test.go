package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// All synthetic packages share one fileset and one source importer so
// the (comparatively slow) from-source stdlib type-checking is paid
// once per imported package, not once per test case.
var (
	testMu       sync.Mutex
	testFset     = token.NewFileSet()
	testImporter = importer.ForCompiler(testFset, "source", nil)
)

// checkSrc type-checks one synthetic source file as a package with the
// given import path (the path is what package-scoped analyzers match
// against) and the given filename (what clockdet's allowlist matches
// against).
func checkSrc(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	testMu.Lock()
	defer testMu.Unlock()
	f, err := parser.ParseFile(testFset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: testImporter, FakeImportC: true}
	tpkg, err := conf.Check(path, testFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: path, Fset: testFset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// golden renders diagnostics as "line:rule" for compact comparison.
func golden(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = fmt.Sprintf("%d:%s", d.Line, d.Rule)
	}
	return out
}

func runOn(t *testing.T, path, filename, src string, as ...*Analyzer) []Diagnostic {
	t.Helper()
	pkg := checkSrc(t, path, filename, src)
	return Run([]*Package{pkg}, as)
}

func expect(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	got := golden(diags)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v\nfull: %v", got, want, diags)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("finding %d: got %v, want %v\nfull: %v", i, got, want, diags)
		}
	}
}

const corePath = "tsplit/internal/core"

func TestMapOrder(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "unsorted range fires",
			path: corePath,
			src: `package core
func f(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}`,
			want: []string{"4:maporder"},
		},
		{
			name: "collect then total sort is clean",
			path: corePath,
			src: `package core
import "sort"
func f(m map[int]int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}`,
			want: nil,
		},
		{
			name: "conditional append of derived value then sort.Strings is clean",
			path: corePath,
			src: `package core
import (
	"fmt"
	"sort"
)
func f(m map[string]int) []string {
	var rows []string
	for k, v := range m {
		if v > 0 {
			rows = append(rows, fmt.Sprintf("%s=%d", k, v))
		}
	}
	sort.Strings(rows)
	return rows
}`,
			want: nil,
		},
		{
			name: "sort.Slice with a partial key does not count",
			path: corePath,
			src: `package core
import "sort"
func f(m map[int]int) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return m[ids[a]] < m[ids[b]] })
	return ids
}`,
			want: []string{"5:maporder"},
		},
		{
			name: "delete-only body is clean",
			path: corePath,
			src: `package core
func f(m map[int]int) {
	for k := range m {
		delete(m, k)
	}
}`,
			want: nil,
		},
		{
			name: "non-critical package is not checked",
			path: "tsplit/internal/models",
			src: `package models
func f(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}`,
			want: nil,
		},
		{
			name: "nested inside if still fires",
			path: corePath,
			src: `package core
func f(m map[int]int, on bool) int {
	s := 0
	if on {
		for _, v := range m {
			s += v
		}
	}
	return s
}`,
			want: []string{"5:maporder"},
		},
		{
			name: "range over slice is fine",
			path: corePath,
			src: `package core
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, tc.path, "maporder_case.go", tc.src, MapOrder), tc.want...)
		})
	}
}

func TestClockDet(t *testing.T) {
	cases := []struct {
		name     string
		filename string
		src      string
		want     []string
	}{
		{
			name:     "time.Now fires",
			filename: "internal/core/x.go",
			src: `package core
import "time"
func f() time.Time { return time.Now() }`,
			want: []string{"3:clockdet"},
		},
		{
			name:     "time.Since fires",
			filename: "internal/core/x.go",
			src: `package core
import "time"
func f(t0 time.Time) float64 { return time.Since(t0).Seconds() }`,
			want: []string{"3:clockdet"},
		},
		{
			name:     "math/rand import fires",
			filename: "internal/core/x.go",
			src: `package core
import "math/rand"
func f() int { return rand.Int() }`,
			want: []string{"2:clockdet"},
		},
		{
			name:     "allowlisted clock file is exempt",
			filename: "internal/obs/clock.go",
			src: `package obs
import "time"
func Wall() time.Time { return time.Now() }`,
			want: nil,
		},
		{
			name:     "time.Time arithmetic without reading the clock is fine",
			filename: "internal/core/x.go",
			src: `package core
import "time"
func f(a, b time.Time) time.Duration { return a.Sub(b) }`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, corePath, tc.filename, tc.src, ClockDet), tc.want...)
		})
	}
}

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "exact float equality fires",
			path: corePath,
			src: `package core
func f(a, b float64) bool { return a == b }`,
			want: []string{"2:floateq"},
		},
		{
			name: "exact float inequality fires",
			path: corePath,
			src: `package core
func f(a, b float32) bool { return a != b }`,
			want: []string{"2:floateq"},
		},
		{
			name: "integer equality is fine",
			path: corePath,
			src: `package core
func f(a, b int64) bool { return a == b }`,
			want: nil,
		},
		{
			name: "float ordering comparisons are fine",
			path: corePath,
			src: `package core
func f(a, b float64) bool { return a < b }`,
			want: nil,
		},
		{
			name: "outside the planner the rule does not run",
			path: "tsplit/internal/sim",
			src: `package sim
func f(a, b float64) bool { return a == b }`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, tc.path, "floateq_case.go", tc.src, FloatEq), tc.want...)
		})
	}
}

func TestErrDrop(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "dropped error fires",
			src: `package core
import "os"
func f(f *os.File) {
	f.Close()
}`,
			want: []string{"4:errdrop"},
		},
		{
			name: "blank assignment is an explicit acknowledgment",
			src: `package core
import "os"
func f(f *os.File) {
	_ = f.Close()
}`,
			want: nil,
		},
		{
			name: "deferred cleanup is not flagged",
			src: `package core
import "os"
func f(f *os.File) {
	defer f.Close()
}`,
			want: nil,
		},
		{
			name: "fmt.Println is exempt",
			src: `package core
import "fmt"
func f() { fmt.Println("x") }`,
			want: nil,
		},
		{
			name: "fmt.Fprintf to stderr is exempt",
			src: `package core
import (
	"fmt"
	"os"
)
func f() { fmt.Fprintf(os.Stderr, "x") }`,
			want: nil,
		},
		{
			name: "fmt.Fprintf to a strings.Builder is exempt",
			src: `package core
import (
	"fmt"
	"strings"
)
func f() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x")
	return b.String()
}`,
			want: nil,
		},
		{
			name: "builder method errors are exempt",
			src: `package core
import "strings"
func f() string {
	var b strings.Builder
	b.WriteString("x")
	return b.String()
}`,
			want: nil,
		},
		{
			name: "fmt.Fprintf to a real writer fires",
			src: `package core
import (
	"fmt"
	"io"
)
func f(w io.Writer) { fmt.Fprintf(w, "x") }`,
			want: []string{"6:errdrop"},
		},
		{
			name: "deferred Close on a file opened for writing fires",
			src: `package core
import "os"
func f() error {
	f, err := os.Create("out")
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}`,
			want: []string{"8:errdrop"},
		},
		{
			name: "deferred Close on a read-only file stays exempt",
			src: `package core
import "os"
func f() error {
	f, err := os.Open("in")
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}`,
			want: nil,
		},
		{
			name: "deferred Close on a write-mode OpenFile fires",
			src: `package core
import "os"
func f() error {
	f, err := os.OpenFile("out", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}`,
			want: []string{"8:errdrop"},
		},
		{
			name: "deferred Close on a read-mode OpenFile stays exempt",
			src: `package core
import "os"
func f() error {
	f, err := os.OpenFile("in", os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}`,
			want: nil,
		},
		{
			name: "explicit Close returning the error is the encouraged pattern",
			src: `package core
import "os"
func f() error {
	f, err := os.Create("out")
	if err != nil {
		return err
	}
	return f.Close()
}`,
			want: nil,
		},
		{
			name: "suppressing inside a deferred closure is an explicit acknowledgment",
			src: `package core
import "os"
func f() error {
	f, err := os.Create("out")
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return nil
}`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, corePath, "errdrop_case.go", tc.src, ErrDrop), tc.want...)
		})
	}
}

func TestScratchReuse(t *testing.T) {
	cases := []struct {
		name     string
		filename string
		src      string
		want     []string
	}{
		{
			name:     "make inside a loop fires",
			filename: "planner.go",
			src: `package core
func f(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 8)
	}
}`,
			want: []string{"4:scratchreuse"},
		},
		{
			name:     "growing append without a reset fires",
			filename: "candindex.go",
			src: `package core
func f(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}`,
			want: []string{"5:scratchreuse"},
		},
		{
			name:     "append into a length-reset buffer is the encouraged pattern",
			filename: "planner.go",
			src: `package core
func f(xs []int, buf []int) []int {
	var out []int
	out = buf[:0]
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}`,
			want: nil,
		},
		{
			name:     "append into a parameter is the caller-recycles pattern",
			filename: "memsim.go",
			src: `package core
func f(xs []int, buf []int) []int {
	for _, x := range xs {
		buf = append(buf, x)
	}
	return buf
}`,
			want: nil,
		},
		{
			name:     "append into a slice pre-sized with make cap is exempt",
			filename: "finalize.go",
			src: `package core
func f(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}`,
			want: nil,
		},
		{
			name:     "local bound to a recycled arena row via [:0] is exempt",
			filename: "candindex.go",
			src: `package core
func f(arena [][]int, xs []int, p int) []int {
	row := arena[p][:0]
	for _, x := range xs {
		row = append(row, x)
	}
	return row
}`,
			want: nil,
		},
		{
			name:     "loop inside a closure uses the closure's own resets",
			filename: "incremental.go",
			src: `package core
func f(xs []int) func() []int {
	return func() []int {
		var out []int
		for _, x := range xs {
			out = append(out, x)
		}
		return out
	}
}`,
			want: []string{"6:scratchreuse"},
		},
		{
			name:     "cold-path files in the same package are out of scope",
			filename: "export.go",
			src: `package core
func f(n int) {
	for i := 0; i < n; i++ {
		_ = make([]int, 8)
	}
}`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, corePath, tc.filename, tc.src, ScratchReuse), tc.want...)
		})
	}
}

func TestSuppression(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "allow above the line suppresses",
			src: `package core
func f(m map[int]int) int {
	s := 0
	//lint:allow maporder commutative sum
	for _, v := range m {
		s += v
	}
	return s
}`,
			want: nil,
		},
		{
			name: "file-wide allow above the package clause",
			src: `//lint:allow maporder generated aggregation code
package core

func f(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}`,
			want: nil,
		},
		{
			name: "allow for a different rule does not suppress",
			src: `package core
func f(m map[int]int) int {
	s := 0
	//lint:allow errdrop wrong rule
	for _, v := range m {
		s += v
	}
	return s
}`,
			want: []string{"5:maporder"},
		},
		{
			name: "allow list covers several rules",
			src: `package core
import "time"
func f(m map[int]int) time.Time {
	//lint:allow maporder,clockdet demo of a multi-rule allow
	for k := range m {
		_ = k
	}
	//lint:allow clockdet timestamping only, value unused downstream
	return time.Now()
}`,
			want: nil,
		},
		{
			name: "allow does not leak past the next line",
			src: `package core
func f(m, n map[int]int) int {
	s := 0
	//lint:allow maporder covers only the first loop
	for _, v := range m {
		s += v
	}
	for _, v := range n {
		s += v
	}
	return s
}`,
			want: []string{"8:maporder"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, corePath, "suppress_case.go", tc.src, MapOrder, ClockDet, ErrDrop), tc.want...)
		})
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("maporder, errdrop")
	if err != nil || len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "errdrop" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	// Retired rules do not resolve: nilsafe's and gojoin's properties
	// are runtime tests (obs.TestNilReceiverMethods,
	// experiments.TestForEachCoversAllIndices).
	for _, name := range []string{"nosuchrule", "nilsafe", "gojoin"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) should reject an unknown rule", name)
		}
	}
}

func TestDiagnosticsSorted(t *testing.T) {
	src := `package core
import "time"
func f(m map[int]int) time.Time {
	for k := range m {
		_ = k
	}
	return time.Now()
}`
	diags := runOn(t, corePath, "sorted_case.go", src, ClockDet, MapOrder)
	expect(t, diags, "4:maporder", "7:clockdet")
	if !strings.Contains(diags[1].Message, "obs.Clock") {
		t.Fatalf("clockdet message should point at the injectable clock: %q", diags[1].Message)
	}
}

// TestModuleIsLintClean is the dogfood gate in test form: the module
// that ships the analyzers must itself carry zero findings. cmd/lint
// enforces the same in `make ci`; this keeps `go test ./...` sufficient.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := Run(mod.Pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
