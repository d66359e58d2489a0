package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// Tracer collects a forest of timed spans. It is the tracing
// counterpart of Registry: dependency-free, concurrency-safe, and
// deterministic when driven by a fake Clock. A nil *Tracer is a valid
// no-op — StartSpan on it returns a nil *Span, whose methods are also
// no-ops — so instrumented code carries exactly one nil check per
// span and nothing else (the bench-guard CI step holds the planner's
// nil-tracer path to the recorded allocs/op baseline).
//
// Span timestamps are stored as offsets from the tracer's creation
// instant, so exporting the same run under the same Clock sequence
// yields byte-identical JSON regardless of when (or on what machine)
// it ran.
//
// Nil-safety contract: every exported method must reach a
// nil-receiver guard before any dereference, directly or through a
// nil-safe method; TestNilReceiverMethods calls each one on a nil
// receiver.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	t0    time.Time
	roots []*Span // lint:guardedby mu
}

// NewTracer creates a tracer reading timestamps from clock (Wall when
// nil). The creation instant is time zero for every span offset.
func NewTracer(clock Clock) *Tracer {
	if clock == nil {
		clock = Wall
	}
	return &Tracer{clock: clock, t0: clock()}
}

// Span is one timed, named region of work. Spans nest: children
// created through (*Span).StartSpan are exported inside their parent.
// A Span is not safe for concurrent mutation; concurrent subsystems
// (the experiment pool) give each goroutine its own root span.
//
// Nil-safety contract: a nil *Span (from a nil tracer's StartSpan) is
// a no-op; every exported method guards the receiver first
// (TestNilReceiverMethods calls each one on a nil receiver).
type Span struct {
	tr       *Tracer
	name     string
	start    time.Duration // offset from tr.t0
	dur      time.Duration // -1 while the span is still open
	attrs    []Label
	children []*Span
}

// StartSpan opens a root span. Nil-safe: a nil tracer returns a nil
// span. Prefer attr-free calls on hot paths (a zero-length variadic
// does not allocate) and attach attrs afterwards with SetAttr.
func (t *Tracer) StartSpan(name string, attrs ...Label) *Span {
	if t == nil {
		return nil
	}
	sp := t.newSpan(name, attrs)
	t.mu.Lock()
	t.roots = append(t.roots, sp)
	t.mu.Unlock()
	return sp
}

// StartSpan opens a child of s. Nil-safe on a nil receiver.
func (s *Span) StartSpan(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	sp := s.tr.newSpan(name, attrs)
	s.children = append(s.children, sp)
	return sp
}

func (t *Tracer) newSpan(name string, attrs []Label) *Span {
	sp := &Span{tr: t, name: name, start: t.clock().Sub(t.t0), dur: -1}
	if len(attrs) > 0 {
		sp.attrs = append(sp.attrs, attrs...)
	}
	return sp
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration. Nil-safe.
func (s *Span) End() {
	if s == nil || s.dur >= 0 {
		return
	}
	s.dur = s.tr.clock().Sub(s.tr.t0) - s.start
}

// SetAttr attaches a key=value attribute. Nil-safe, so callers can
// annotate unconditionally after an unguarded StartSpan.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// SetAttrInt attaches an integer attribute. Nil-safe.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: strconv.FormatInt(v, 10)})
}

// SpanNode is the exported form of one span. Offsets and durations
// are integer microseconds: coarse enough to be stable across
// marshaling, fine enough for sub-millisecond planner phases.
type SpanNode struct {
	Name        string      `json:"name"`
	StartMicros int64       `json:"start_us"`
	DurMicros   int64       `json:"dur_us"` // -1: span never ended
	Attrs       []Label     `json:"attrs,omitempty"`
	Children    []*SpanNode `json:"children,omitempty"`
}

// Tree snapshots the whole span forest in creation order. Open spans
// export with DurMicros -1 rather than a clock read, so a snapshot
// taken twice without intervening work is identical.
func (t *Tracer) Tree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*SpanNode, len(t.roots))
	for i, sp := range t.roots {
		out[i] = sp.node()
	}
	return out
}

func (s *Span) node() *SpanNode {
	n := &SpanNode{
		Name:        s.name,
		StartMicros: s.start.Microseconds(),
		DurMicros:   -1,
	}
	if s.dur >= 0 {
		n.DurMicros = s.dur.Microseconds()
	}
	if len(s.attrs) > 0 {
		n.Attrs = append([]Label(nil), s.attrs...)
	}
	if len(s.children) > 0 {
		n.Children = make([]*SpanNode, len(s.children))
		for i, c := range s.children {
			n.Children[i] = c.node()
		}
	}
	return n
}

// WriteJSON writes the span forest as indented JSON. Under a fixed
// Clock the output is byte-deterministic: span order is creation
// order, attr order is attachment order, and encoding/json emits
// struct fields in declaration order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	tree := t.Tree()
	if tree == nil {
		tree = []*SpanNode{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tree)
}
