package lint

import (
	"strings"
	"testing"
)

// The interprocedural analyzer (guardedby) is tested the same way as
// the syntactic ones: synthetic packages, golden "line:rule"
// expectations. The table deliberately pairs a positive case (the bug
// fires) with its minimal negative twin (add the lock and the finding
// disappears) — the same property the dogfood gate relies on for the
// real module.

func TestGuardedBy(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "unguarded write fires",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump() { s.n++ }`,
			want: []string{"7:guardedby"},
		},
		{
			name: "lock around the write is clean",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}`,
			want: nil,
		},
		{
			name: "a generic type's guarded field fires and clears the same way",
			src: `package core
import "sync"
type G[V any] struct {
	mu sync.Mutex
	m  map[string]V // lint:guardedby mu
}
func (g *G[V]) Drop(k string) { delete(g.m, k) }
func (g *G[V]) Put(k string, v V) {
	g.mu.Lock()
	g.m[k] = v
	g.mu.Unlock()
}`,
			want: []string{"7:guardedby"},
		},
		{
			name: "access after Unlock fires",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump() {
	s.mu.Lock()
	s.mu.Unlock()
	s.n++
}`,
			want: []string{"10:guardedby"},
		},
		{
			name: "deferred unlock holds to the end of the function",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}`,
			want: nil,
		},
		{
			name: "rwmutex read under RLock is clean, write under RLock fires",
			src: `package core
import "sync"
type S struct {
	mu sync.RWMutex
	n  int // lint:guardedby mu
}
func (s *S) Get() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}
func (s *S) Bump() {
	s.mu.RLock()
	s.n++
	s.mu.RUnlock()
}`,
			want: []string{"14:guardedby"},
		},
		{
			name: "read without even RLock fires",
			src: `package core
import "sync"
type S struct {
	mu sync.RWMutex
	n  int // lint:guardedby mu
}
func (s *S) Get() int { return s.n }`,
			want: []string{"7:guardedby"},
		},
		{
			name: "unexported helper inherits the caller's lock",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) bumpLocked() { s.n++ }
func (s *S) Bump() {
	s.mu.Lock()
	s.bumpLocked()
	s.mu.Unlock()
}`,
			want: nil,
		},
		{
			// The requirement propagates out of the helper into Race;
			// Race is exported so it cannot push it further, and the
			// finding lands on the underlying field access with Race
			// named in the message.
			name: "calling a lock-requiring helper without the lock fires",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) bumpLocked() { s.n++ }
func (s *S) Bump() {
	s.mu.Lock()
	s.bumpLocked()
	s.mu.Unlock()
}
func (s *S) Race() { s.bumpLocked() }`,
			want: []string{"7:guardedby"},
		},
		{
			name: "exported method may not push its requirement to callers",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) BumpLocked() { s.n++ }
func (s *S) Bump() {
	s.mu.Lock()
	s.BumpLocked()
	s.mu.Unlock()
}`,
			want: []string{"7:guardedby"},
		},
		{
			name: "early-return branch that unlocks does not poison the fallthrough",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump(stop bool) {
	s.mu.Lock()
	if stop {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
}`,
			want: nil,
		},
		{
			name: "freshly constructed value is exempt until published",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func New(n int) *S {
	s := &S{}
	s.n = n
	return s
}`,
			want: nil,
		},
		{
			name: "guardedby naming a missing lock field is itself a finding",
			src: `package core
type S struct {
	n int // lint:guardedby mu
}`,
			want: []string{"3:guardedby"},
		},
		{
			name: "guardedby naming a non-mutex sibling is a finding",
			src: `package core
type S struct {
	mu int
	n  int // lint:guardedby mu
}`,
			want: []string{"4:guardedby"},
		},
		{
			name: "locking a different instance does not count",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func Move(a, b *S) {
	a.mu.Lock()
	b.n++
	a.mu.Unlock()
}`,
			want: []string{"9:guardedby"},
		},
		{
			name: "goroutine body does not inherit the spawner's lock",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump(done chan struct{}) {
	s.mu.Lock()
	go func() {
		s.n++
		close(done)
	}()
	s.mu.Unlock()
	<-done
}`,
			want: []string{"10:guardedby"},
		},
		{
			name: "switch arms each see the pre-switch lock state",
			src: `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Set(k, v int) {
	s.mu.Lock()
	switch k {
	case 0:
		s.n = v
	default:
		s.n = -v
	}
	s.mu.Unlock()
}`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expect(t, runOn(t, corePath, "guardedby_case.go", tc.src, GuardedBy), tc.want...)
		})
	}
}

// TestInterpCallGraph pins the call-graph layer itself: static edges,
// interface resolution to in-module implementations, and SCC order.
func TestInterpCallGraph(t *testing.T) {
	src := `package core
type doer interface{ do() }
type impl struct{}
func (impl) do() {}
func a() { b() }
func b() { a() }
func use(d doer) { d.do() }
func top() { use(impl{}) }`
	pkg := checkSrc(t, corePath, "callgraph_case.go", src)
	in := NewInterp([]*Package{pkg})

	byName := map[string]*FuncInfo{}
	for fn, fi := range in.Graph.Funcs {
		byName[fn.Name()] = fi
	}
	for _, want := range []string{"do", "a", "b", "use", "top"} {
		if byName[want] == nil {
			t.Fatalf("call graph is missing %s (have %d funcs)", want, len(byName))
		}
	}
	if byName["a"].scc != byName["b"].scc {
		t.Errorf("mutually recursive a and b should share an SCC")
	}
	if byName["a"].scc == byName["top"].scc {
		t.Errorf("top must not be in a/b's SCC")
	}
	var viaIface bool
	for _, e := range byName["use"].Callees {
		if e.Callee == byName["do"] && e.ViaInterface {
			viaIface = true
		}
	}
	if !viaIface {
		t.Errorf("use's d.do() should resolve to impl.do via the interface: %+v", byName["use"].Callees)
	}
	if len(in.Summaries) != len(in.Graph.Funcs) {
		t.Errorf("every function should have a summary: %d != %d", len(in.Summaries), len(in.Graph.Funcs))
	}
}

func TestGuardedByMessageNamesTheLock(t *testing.T) {
	src := `package core
import "sync"
type S struct {
	mu sync.Mutex
	n  int // lint:guardedby mu
}
func (s *S) Bump() { s.n++ }`
	diags := runOn(t, corePath, "guardedby_msg.go", src, GuardedBy)
	if len(diags) != 1 {
		t.Fatalf("want one finding, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, `"mu"`) || !strings.Contains(diags[0].Message, "guardedby") {
		t.Fatalf("message should name the lock and the annotation: %q", diags[0].Message)
	}
}
