package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
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

// hitAllocs is the allocation count of one cache hit on path: the
// request and the writer are built once, and every run re-reads the
// same body into the same header map.
func hitAllocs(t *testing.T, s *Server, path, body string) float64 {
	t.Helper()
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, path, rb)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		rb.Reset([]byte(body))
		clear(w.h)
		w.status = 0
		s.ServeHTTP(w, req)
	}
	serve() // the miss that fills the cache
	if w.status != http.StatusOK {
		t.Fatalf("%s: status %d", path, w.status)
	}
	return testing.AllocsPerRun(200, func() {
		serve()
		if w.status != http.StatusOK {
			t.Fatalf("%s hit: status %d", path, w.status)
		}
	})
}

// planHitAllocsAtPR14 is what a /v1/plan hit allocated before the two
// endpoints shared one answer path (measured by this test at that
// commit; a /v1/peak request allocated 85 there).
const planHitAllocsAtPR14 = 48

// raceBuild reports whether the test binary was built with -race,
// whose instrumentation allocates once more per request (49 at that
// commit too).
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHitPathAllocations pins the cost of the shared answer path's
// fast path: a /v1/plan hit allocates no more than it did with a
// handler of its own, and a /v1/peak hit — one header fewer, one
// histogram observation more — no more than a plan hit plus a small
// constant. The leader closure is built only on a miss, so neither
// pays for it.
func TestHitPathAllocations(t *testing.T) {
	s := New(Config{})
	body := `{"model":"vgg16","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":6442450944}}`
	plan := hitAllocs(t, s, "/v1/plan", body)
	peak := hitAllocs(t, s, "/v1/peak", body)
	t.Logf("allocations per hit: /v1/plan %.0f, /v1/peak %.0f", plan, peak)
	pinned := float64(planHitAllocsAtPR14)
	if raceBuild() {
		pinned++
	}
	if plan > pinned {
		t.Errorf("/v1/plan hit allocates %.0f, more than the %.0f it did with its own handler", plan, pinned)
	}
	if peak > plan+2 {
		t.Errorf("/v1/peak hit allocates %.0f, want at most a /v1/plan hit's %.0f + 2", peak, plan)
	}
}
