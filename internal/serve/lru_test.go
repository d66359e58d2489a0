package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"
)

// TestLRU pins the one list both caches share: a get and a re-put each
// refresh recency, a re-put refreshes the value, eviction takes the
// least recently used entry, and a non-positive capacity means the
// fallback.
func TestLRU(t *testing.T) {
	l := newLRU[int](2, 99)
	if _, displaced := l.put("a", 1); displaced {
		t.Fatal("first put displaced an entry")
	}
	l.put("b", 2) // [b a]
	if v, ok := l.get("a"); !ok || v != 1 {
		t.Fatalf("get(a) = %d, %v", v, ok) // [a b]
	}
	if out, displaced := l.put("c", 3); !displaced || out != (lruEntry[int]{"b", 2}) {
		t.Fatalf("put(c) displaced %+v, %v; want b (a was refreshed by get)", out, displaced) // [c a]
	}
	if out, displaced := l.put("a", 10); !displaced || out != (lruEntry[int]{"a", 1}) {
		t.Fatalf("re-put(a) displaced %+v, %v; want a's old value", out, displaced) // [a c]
	}
	if v, _ := l.get("a"); v != 10 {
		t.Fatalf("get(a) after re-put = %d, want 10", v)
	}
	if out, _ := l.put("d", 4); out.key != "c" {
		t.Fatalf("put(d) evicted %q, want c (a was refreshed by re-put)", out.key) // [d a]
	}
	if _, ok := l.get("b"); ok {
		t.Fatal("evicted key b still present")
	}
	if l.len() != 2 {
		t.Fatalf("len = %d, want 2", l.len())
	}

	for _, capacity := range []int{0, -3} {
		d := newLRU[int](capacity, 3)
		for i := 0; i < 5; i++ {
			d.put(fmt.Sprint(i), i)
		}
		if d.len() != 3 {
			t.Fatalf("capacity %d: len = %d, want the fallback 3", capacity, d.len())
		}
	}
}

// TestWorkloadEvictionRebuilds runs three workloads through a
// two-entry workload cache: the resident count never passes two, a
// workload in use survives, and an evicted one is built again and
// still answers.
func TestWorkloadEvictionRebuilds(t *testing.T) {
	s := New(Config{WorkloadEntries: 2})
	resident := func(seed int) *prepared {
		t.Helper()
		req, herr := decodeRequest([]byte(specReq(seed)))
		if herr != nil {
			t.Fatal(herr)
		}
		wl, _, herr := s.workloads.get(context.Background(), req)
		if herr != nil {
			t.Fatal(herr)
		}
		if n := healthz(t, s)["workloads_cached"].(float64); n > 2 {
			t.Fatalf("workloads_cached = %v, want <= 2", n)
		}
		return wl
	}
	w1, w2 := resident(1), resident(2)
	if resident(1) != w1 {
		t.Fatal("resident workload 1 was rebuilt")
	}
	resident(3) // evicts 2, the least recently used
	if resident(1) != w1 {
		t.Fatal("workload 1 was evicted although 2 was older")
	}
	if r := post(s, specReq(2)); r.code != http.StatusOK {
		t.Fatalf("request on the evicted workload: status %d, body %s", r.code, r.body)
	}
	if resident(2) == w2 {
		t.Fatal("evicted workload 2 was not rebuilt")
	}
}
