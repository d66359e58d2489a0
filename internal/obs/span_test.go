package obs

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"
)

// fakeClock returns a Clock that advances by step on every reading,
// starting at a fixed epoch — the determinism harness for span and
// flight tests.
func fakeClock(step time.Duration) Clock {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer(fakeClock(time.Millisecond))
	root := tr.StartSpan("plan")
	child := root.StartSpan("fold")
	child.SetAttr("winner", "swap")
	child.SetAttrInt("iter", 7)
	child.End()
	root.End()

	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree))
	}
	r := tree[0]
	if r.Name != "plan" || len(r.Children) != 1 {
		t.Fatalf("root = %+v", r)
	}
	c := r.Children[0]
	if c.Name != "fold" {
		t.Fatalf("child name = %q", c.Name)
	}
	// Clock steps 1ms per reading: tracer birth, root start, child
	// start, child end, root end.
	if r.StartMicros != 1000 || c.StartMicros != 2000 {
		t.Fatalf("starts = %d, %d", r.StartMicros, c.StartMicros)
	}
	if c.DurMicros != 1000 || r.DurMicros != 3000 {
		t.Fatalf("durs: child %d root %d", c.DurMicros, r.DurMicros)
	}
	want := []Label{{Key: "winner", Value: "swap"}, {Key: "iter", Value: "7"}}
	if len(c.Attrs) != 2 || c.Attrs[0] != want[0] || c.Attrs[1] != want[1] {
		t.Fatalf("attrs = %+v", c.Attrs)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("anything", L("k", "v"))
	if sp != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	// All of these must be no-ops, not panics.
	child := sp.StartSpan("child")
	child.SetAttr("a", "b")
	child.SetAttrInt("n", 1)
	child.End()
	sp.End()
	if tree := tr.Tree(); tree != nil {
		t.Fatalf("nil tracer Tree = %v", tree)
	}
}

// TestNilReceiverMethods calls every exported method of the types
// whose nil pointer is a documented no-op (Tracer, Span, Flight,
// Dumper) on a nil receiver, with zero-valued arguments and io.Discard
// for an io.Writer, and fails on any panic. Reflection lists the
// methods, so one added later is covered without editing this test.
func TestNilReceiverMethods(t *testing.T) {
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	called := 0
	for _, typ := range []reflect.Type{
		reflect.TypeOf((*Tracer)(nil)),
		reflect.TypeOf((*Span)(nil)),
		reflect.TypeOf((*Flight)(nil)),
		reflect.TypeOf((*Dumper)(nil)),
	} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := []reflect.Value{reflect.Zero(typ)}
			for j := 1; j < m.Type.NumIn(); j++ {
				if in := m.Type.In(j); in == writer {
					args = append(args, reflect.ValueOf(io.Discard))
				} else {
					args = append(args, reflect.Zero(in))
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(%v).%s on a nil receiver panicked: %v", typ, m.Name, r)
					}
				}()
				if m.Type.IsVariadic() {
					m.Func.CallSlice(args)
				} else {
					m.Func.Call(args)
				}
			}()
			called++
		}
	}
	if called < 14 {
		t.Fatalf("called %d methods, want at least the 14 these types had when this test was written", called)
	}
}

func TestSpanOpenExportsMinusOne(t *testing.T) {
	tr := NewTracer(fakeClock(time.Millisecond))
	sp := tr.StartSpan("open")
	tree := tr.Tree()
	if tree[0].DurMicros != -1 {
		t.Fatalf("open span dur = %d, want -1", tree[0].DurMicros)
	}
	sp.End()
	sp.End() // double End keeps the first duration
	d := tr.Tree()[0].DurMicros
	if d != 1000 {
		t.Fatalf("dur after double End = %d, want 1000", d)
	}
}

// TestSpanJSONDeterminism is the golden byte-determinism gate from the
// acceptance criteria: two identical runs under identical fake clocks
// must export byte-identical JSON.
func TestSpanJSONDeterminism(t *testing.T) {
	run := func() []byte {
		tr := NewTracer(fakeClock(time.Microsecond * 250))
		root := tr.StartSpan("planner.plan")
		for i := 0; i < 3; i++ {
			it := root.StartSpan("planner.bottleneck")
			it.SetAttrInt("iter", int64(i))
			it.End()
			f := root.StartSpan("planner.fold")
			f.SetAttr("kind", "swap")
			f.End()
		}
		root.End()
		tr.StartSpan("unended")
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("span JSON not byte-deterministic:\n%s\nvs\n%s", a, b)
	}
	golden := `[
  {
    "name": "planner.plan",
    "start_us": 250,
    "dur_us": 3250,
`
	if !bytes.HasPrefix(a, []byte(golden)) {
		head := a
		if len(head) > 200 {
			head = head[:200]
		}
		t.Fatalf("span JSON drifted from golden prefix:\n%s", head)
	}
}

func TestTracerWriteJSONEmpty(t *testing.T) {
	tr := NewTracer(fakeClock(time.Millisecond))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty tracer JSON = %q", got)
	}
}
