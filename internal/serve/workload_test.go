package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tsplit/internal/obs"
)

// specID is the workload id of specReq(seed).
func specID(seed int) string {
	req, herr := decodeRequest([]byte(specReq(seed)))
	if herr != nil {
		panic(herr)
	}
	return req.workloadID()
}

// heldBuilds is a testHookBuildStart that parks every build leader
// whose id hold accepts (nil: all) until release closes, announcing
// each on started and tracking how many are parked at once.
type heldBuilds struct {
	hold    func(id string) bool
	started chan string
	release chan struct{}
	now     atomic.Int32
	max     atomic.Int32
}

func newHeldBuilds(hold func(id string) bool) *heldBuilds {
	return &heldBuilds{hold: hold, started: make(chan string, 64), release: make(chan struct{})}
}

func (h *heldBuilds) hook(id string) {
	if h.hold != nil && !h.hold(id) {
		return
	}
	n := h.now.Add(1)
	for {
		m := h.max.Load()
		if n <= m || h.max.CompareAndSwap(m, n) {
			break
		}
	}
	h.started <- id
	<-h.release
	h.now.Add(-1)
}

// within fails the test unless f returns in time: a request stalled
// behind someone else's build must show as a failure, not as a hung
// test binary.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete", what)
	}
}

func buildsTotal(s *Server) int64 {
	return s.Metrics().Counter("tsplit_serve_workload_builds_total")
}

// workloadAttrs counts the request spans by their "workload" attribute.
func workloadAttrs(tr *obs.Tracer) map[string]int {
	got := map[string]int{}
	for _, sp := range tr.Tree() {
		for _, a := range sp.Attrs {
			if a.Key == "workload" {
				got[a.Value]++
			}
		}
	}
	return got
}

// TestColdBuildDoesNotStallOtherWorkloads holds workload A's build
// open and sends a hit and a miss on prewarmed workload B: both must
// complete while A is still building. (With the build under the
// workload-cache mutex, as it was, neither could even compute its
// key.)
func TestColdBuildDoesNotStallOtherWorkloads(t *testing.T) {
	idA := specID(1)
	held := newHeldBuilds(func(id string) bool { return id == idA })
	cfg := Config{MaxConcurrent: 2}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)

	warm := post(s, specReq(2))
	if warm.code != http.StatusOK {
		t.Fatalf("prewarming B: status %d, body %s", warm.code, warm.body)
	}

	var a result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a = post(s, specReq(1)) }()
	<-held.started // A's leader holds its build slot

	within(t, "a hit and a miss on B during A's build", func() {
		if hit := post(s, specReq(2)); hit.code != http.StatusOK || hit.cache != "hit" || !bytes.Equal(hit.body, warm.body) {
			t.Errorf("hit on B during A's build: status %d, cache %q", hit.code, hit.cache)
		}
		miss := post(s, `{"spec":{"seed":2},"device":"P100","options":{"safety_margin":0.1}}`)
		if miss.code != http.StatusOK || miss.cache != "miss" {
			t.Errorf("miss on B during A's build: status %d, cache %q, body %s", miss.code, miss.cache, miss.body)
		}
	})
	if n := buildsTotal(s); n != 1 {
		t.Fatalf("builds = %d while A is held, want 1 (B's)", n)
	}

	close(held.release)
	wg.Wait()
	if a.code != http.StatusOK {
		t.Fatalf("A: status %d, body %s", a.code, a.body)
	}
	if n, h := buildsTotal(s), s.Metrics().Histogram("tsplit_serve_workload_build_seconds").Count; n != 2 || h != 2 {
		t.Fatalf("builds = %d, build_seconds observations = %d, want 2 and 2", n, h)
	}
}

// TestConcurrentColdRequestsBuildOnce sends 16 requests for one cold
// workload while its build is held: one build serves all of them, the
// other 15 wait on it, and all 16 answer the same bytes.
func TestConcurrentColdRequestsBuildOnce(t *testing.T) {
	const n = 16
	held := newHeldBuilds(nil)
	tr := obs.NewTracer(obs.Wall)
	cfg := Config{MaxConcurrent: 4, MaxQueue: n, Trace: tr}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)
	var joined atomic.Int32
	s.workloads.builds.onJoin = func(string) { joined.Add(1) }

	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = post(s, specReq(11)) }(i)
	}
	<-held.started
	waitUntil(t, "15 requests waiting on the build", func() bool { return joined.Load() == n-1 })
	if got := healthz(t, s)["workloads_cached"].(float64); got != 0 {
		t.Fatalf("workloads_cached = %v during the build, want 0", got)
	}
	close(held.release)
	wg.Wait()

	if len(held.started) != 0 || buildsTotal(s) != 1 {
		t.Fatalf("%d further build leaders, builds_total %d: want one build for all %d requests",
			len(held.started), buildsTotal(s), n)
	}
	for i, r := range results {
		if r.code != http.StatusOK || !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d: status %d, or bytes differ from request 0", i, r.code)
		}
	}
	if got := workloadAttrs(tr); got["built"] != 1 || got["coalesced"] != n-1 {
		t.Fatalf("workload span attributes %v, want 1 built and %d coalesced", got, n-1)
	}
	if r := post(s, specReq(11)); r.code != http.StatusOK || workloadAttrs(tr)["cached"] != 1 {
		t.Fatalf("a later request: status %d, workload attributes %v, want one cached", r.code, workloadAttrs(tr))
	}
}

// TestBuildsBoundedByMaxConcurrent starts five distinct cold builds
// against MaxConcurrent 2: two run, three wait for a slot, and all
// five finish once slots free up.
func TestBuildsBoundedByMaxConcurrent(t *testing.T) {
	const conc, distinct = 2, 5
	held := newHeldBuilds(nil)
	cfg := Config{MaxConcurrent: conc, MaxQueue: distinct}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)

	results := make([]result, distinct)
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = post(s, specReq(20+i)) }(i)
	}
	for i := 0; i < conc; i++ {
		<-held.started
	}
	builds := s.workloads.builds
	waitUntil(t, "all five builds in flight", func() bool {
		builds.mu.Lock()
		defer builds.mu.Unlock()
		return len(builds.calls) == distinct
	})
	if len(held.started) != 0 || held.now.Load() != conc {
		t.Fatalf("%d builds hold a slot, want %d", int(held.now.Load())+len(held.started), conc)
	}
	close(held.release)
	wg.Wait()

	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.code, r.body)
		}
	}
	if m := held.max.Load(); m > conc {
		t.Fatalf("%d builds ran at once, want at most %d", m, conc)
	}
	if n := buildsTotal(s); n != distinct {
		t.Fatalf("builds = %d, want %d", n, distinct)
	}
}

// TestWorkloadCacheStaysBoundedUnderConcurrentBuilds finishes three
// distinct builds at once into a two-entry cache.
func TestWorkloadCacheStaysBoundedUnderConcurrentBuilds(t *testing.T) {
	held := newHeldBuilds(nil)
	cfg := Config{WorkloadEntries: 2, MaxConcurrent: 3}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r := post(s, specReq(30+i)); r.code != http.StatusOK {
				t.Errorf("request %d: status %d, body %s", i, r.code, r.body)
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		<-held.started
	}
	close(held.release)
	wg.Wait()
	if n := healthz(t, s)["workloads_cached"].(float64); n != 2 {
		t.Fatalf("workloads_cached = %v after three builds into two entries, want 2", n)
	}
	if n := buildsTotal(s); n != 3 {
		t.Fatalf("builds = %d, want 3", n)
	}
}

// wantTimeout checks a 503 "timeout" answer (with Errorf: it runs off
// the test goroutine).
func wantTimeout(t *testing.T, what string, code int, body []byte) {
	t.Helper()
	eb := ErrorBody{}
	if err := json.Unmarshal(body, &eb); code != http.StatusServiceUnavailable || err != nil || eb.Error.Code != "timeout" {
		t.Errorf("%s: status %d, body %s; want 503 timeout", what, code, body)
	}
}

// TestWorkloadWaitHonoursContext holds the only build slot and checks
// that a request waiting on the same workload's build and a request
// waiting for a slot both answer 503 when they expire — by
// RequestTimeout or by the client going away — and that the ids they
// named build normally afterwards.
func TestWorkloadWaitHonoursContext(t *testing.T) {
	idA := specID(41)
	held := newHeldBuilds(func(id string) bool { return id == idA })
	cfg := Config{MaxConcurrent: 1, RequestTimeout: 50 * time.Millisecond}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)

	var a result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a = post(s, specReq(41)) }()
	<-held.started

	within(t, "the expiring requests", func() {
		same := post(s, specReq(41)) // joins A's build, expires
		wantTimeout(t, "waiting on the same workload's build", same.code, same.body)
		other := post(s, specReq(42)) // leads its own build, expires waiting for the slot
		wantTimeout(t, "waiting for a build slot", other.code, other.body)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/peak", strings.NewReader(specReq(41))).WithContext(ctx)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		wantTimeout(t, "a client that went away", w.Code, w.Body.Bytes())
	})
	if n := buildsTotal(s); n != 0 {
		t.Fatalf("builds = %d while the only slot is held, want 0", n)
	}

	close(held.release)
	wg.Wait()
	if a.code != http.StatusOK {
		t.Fatalf("A, whose build outlived its timeout: status %d, body %s", a.code, a.body)
	}
	if r := post(s, specReq(42)); r.code != http.StatusOK {
		t.Fatalf("the id whose leader expired: status %d, body %s", r.code, r.body)
	}
	if n := buildsTotal(s); n != 2 {
		t.Fatalf("builds = %d, want 2", n)
	}
}

// TestFailedBuildIsSharedAndNotCached drives the workload cache with a
// request validation would have refused, so the build fails: the
// leader's 404 reaches every waiter, nothing is cached, and the id is
// free for the next request to build (and fail) again.
func TestFailedBuildIsSharedAndNotCached(t *testing.T) {
	const n = 4
	held := newHeldBuilds(nil)
	cfg := Config{MaxConcurrent: 2}
	cfg.testHookBuildStart = held.hook
	s := New(cfg)
	wc := s.workloads
	var joined atomic.Int32
	wc.builds.onJoin = func(string) { joined.Add(1) }
	bad := &PlanRequest{Model: "no-such-model", Device: "P100"}

	states := make([]string, n)
	herrs := make([]*httpError, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, states[i], herrs[i] = wc.get(context.Background(), bad)
		}(i)
	}
	<-held.started
	waitUntil(t, "the waiters to join", func() bool { return joined.Load() == n-1 })
	close(held.release)
	wg.Wait()

	built := 0
	for i := range herrs {
		if herrs[i] == nil || herrs[i].status != http.StatusNotFound || herrs[i].code != "unknown_model" {
			t.Fatalf("caller %d: %v, want 404 unknown_model", i, herrs[i])
		}
		if herrs[i] != herrs[0] {
			t.Fatalf("caller %d got an error of its own, not the leader's", i)
		}
		if states[i] == "built" {
			built++
		}
	}
	if built != 1 || buildsTotal(s) != 1 || wc.len() != 0 {
		t.Fatalf("%d leaders, %d builds, %d cached; want 1, 1, 0", built, buildsTotal(s), wc.len())
	}
	if _, state, herr := wc.get(context.Background(), bad); herr == nil || state != "built" || buildsTotal(s) != 2 {
		t.Fatalf("next request: state %q, error %v, builds %d; want a second failed build", state, herr, buildsTotal(s))
	}
	wc.builds.mu.Lock()
	defer wc.builds.mu.Unlock()
	if len(wc.builds.calls) != 0 {
		t.Fatalf("%d builds still in flight", len(wc.builds.calls))
	}
}
