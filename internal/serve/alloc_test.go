package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// discardWriter is an http.ResponseWriter that keeps nothing but the
// status, so AllocsPerRun counts the handler's allocations and not a
// recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// rewindBody is a request body that can be read again after a rewind.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// hitCost is the allocation count and the allocated bytes of one cache
// hit on path: the request and the writer are built once, and every
// run re-reads the same body into the same header map. The bytes are a
// runtime.MemStats.TotalAlloc delta, the quantity bench/ reports as
// alloc_kb_per_op: a count cannot see one allocation growing.
func hitCost(t *testing.T, s *Server, path, body string) (allocs, bytes float64) {
	t.Helper()
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, path, rb)
	w := &discardWriter{h: http.Header{}}
	raw := []byte(body)
	serve := func() {
		rb.Reset(raw)
		clear(w.h)
		w.status = 0
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, w.status)
		}
	}
	serve() // the miss that fills the cache
	const runs = 200
	allocs = testing.AllocsPerRun(runs, serve)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// What a /v1/plan hit costs since the plan key and the workload id are
// assembled in stack buffers and the model name is checked with a map
// lookup: 23 allocations and 2024 bytes (2064 under -race) as this test
// measures them, 47 and 2576 before the stack buffers. The byte pin
// leaves under a tenth of headroom: bench/ bounds alloc_kb_per_op at
// 10 %.
const (
	planHitAllocs = 23
	planHitBytes  = 2180
)

// TestHitPathAllocations pins the cost of the shared answer path's
// fast path, in allocations and in bytes: a /v1/plan hit costs no more
// than measured when its key stopped allocating, and a /v1/peak hit —
// one header fewer, one histogram observation more — no more than a
// plan hit plus a small constant. The leader closure is built only on
// a miss, so neither pays for it.
func TestHitPathAllocations(t *testing.T) {
	s := New(Config{})
	body := `{"model":"vgg16","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":6442450944}}`
	plan, planBytes := hitCost(t, s, "/v1/plan", body)
	peak, peakBytes := hitCost(t, s, "/v1/peak", body)
	t.Logf("per hit: /v1/plan %.0f allocations, %.0f bytes; /v1/peak %.0f allocations, %.0f bytes", plan, planBytes, peak, peakBytes)
	if plan > planHitAllocs {
		t.Errorf("/v1/plan hit allocates %.0f times, more than the pinned %d", plan, planHitAllocs)
	}
	if peak > plan+2 {
		t.Errorf("/v1/peak hit allocates %.0f times, want at most a /v1/plan hit's %.0f + 2", peak, plan)
	}
	if planBytes > planHitBytes {
		t.Errorf("/v1/plan hit allocates %.0f bytes, more than the pinned %d", planBytes, planHitBytes)
	}
	if peakBytes > planBytes+64 {
		t.Errorf("/v1/peak hit allocates %.0f bytes, want at most a /v1/plan hit's %.0f + 64", peakBytes, planBytes)
	}
}

// What encoding one /v1/plan miss body costs, as this test measures
// it on the bert-large batch-64 golden request (an 11995-byte body): 2
// allocations, the body's buffer sized from the plan and the sorted id
// list, and 15236 bytes (15236 under -race). Reflecting a PlanJSON,
// indenting it and compacting it again cost 34 allocations and 138 KB
// for the same body. Neither pin may be raised.
const (
	planBodyAllocs = 2
	planBodyBytes  = 15300
)

// TestPlanBodyAllocations pins the allocations and bytes of encoding a
// miss body, the run step's work after the planner returns.
func TestPlanBodyAllocations(t *testing.T) {
	s := New(Config{})
	req, herr := decodeRequest([]byte(`{"model":"bert-large","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":12884901888}}`))
	if herr != nil {
		t.Fatal(herr)
	}
	wl, _, herr := s.workloads.get(context.Background(), req)
	if herr != nil {
		t.Fatal(herr)
	}
	plan, _, herr := s.buildPlan(req.Options, wl)
	if herr != nil {
		t.Fatal(herr)
	}
	a := accepted{req: req, wl: wl, key: planKey(wl.digest, wl.Dev, req.Options)}
	var body []byte
	encode := func() {
		if body, herr = encodePlanResponse(a, plan, nil); herr != nil {
			t.Fatal(herr)
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, encode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		encode()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("per body (%d bytes, cap %d): %.0f allocations, %.0f bytes", len(body), cap(body), allocs, bytes)
	if allocs > planBodyAllocs {
		t.Errorf("encoding a plan body allocates %.0f times, more than the pinned %d", allocs, planBodyAllocs)
	}
	if bytes > planBodyBytes {
		t.Errorf("encoding a plan body allocates %.0f bytes, more than the pinned %d", bytes, planBodyBytes)
	}
}
