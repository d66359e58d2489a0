package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tsplit/internal/obs"
)

// fakeClock is a deterministic obs.Clock: every reading advances one
// millisecond.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// specReq builds a distinct cheap request per seed (the random-graph
// generator yields small graphs, so planner runs are fast and every
// seed is a distinct cache key).
func specReq(seed int) string {
	return fmt.Sprintf(`{"spec":{"seed":%d},"device":"P100"}`, seed)
}

type result struct {
	code  int
	cache string
	key   string
	body  []byte
}

func post(s *Server, body string) result { return postTo(s, "/v1/plan", body) }

func postTo(s *Server, path, body string) result {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return result{
		code:  w.Code,
		cache: w.Header().Get("X-Tsplit-Cache"),
		key:   w.Header().Get("X-Tsplit-Key"),
		body:  w.Body.Bytes(),
	}
}

// floodBehindLeader posts n identical requests to path while the
// first of them, the leader, is held in its run slot, lets the leader
// go once the other n-1 are visible as coalesced, and returns the
// server and every result. Exactly one leader must have run.
func floodBehindLeader(t *testing.T, path string, n int) (*Server, []result) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan string, n)
	cfg := Config{MaxConcurrent: 4}
	cfg.testHookPlanStart = func(key string) {
		started <- key
		<-release
	}
	s := New(cfg)

	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postTo(s, path, specReq(7))
		}(i)
	}
	<-started // the leader holds its slot
	waitUntil(t, "all waiters coalesced", func() bool {
		return s.Metrics().Counter("tsplit_serve_coalesced_total") == int64(n-1)
	})
	close(release)
	wg.Wait()
	if len(started) != 0 {
		t.Fatalf("%d further leaders ran, want one for all %d requests", len(started), n)
	}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.code, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) || r.key != results[0].key {
			t.Fatalf("request %d returned different bytes or another key", i)
		}
	}
	return s, results
}

// TestCoalescingCollapsesIdenticalRequests holds the planner open
// while N identical requests arrive: exactly one planner run must
// serve all of them with identical bytes, and the N-1 waiters must be
// visible as coalesced while the leader is still planning.
func TestCoalescingCollapsesIdenticalRequests(t *testing.T) {
	const n = 24
	s, results := floodBehindLeader(t, "/v1/plan", n)
	if runs := s.Metrics().Counter("tsplit_serve_planner_runs_total"); runs != 1 {
		t.Fatalf("planner runs = %d, want 1", runs)
	}
	var missCount, coalescedCount int
	for i, r := range results {
		switch r.cache {
		case "miss":
			missCount++
		case "coalesced":
			coalescedCount++
		default:
			t.Fatalf("request %d: unexpected cache state %q", i, r.cache)
		}
	}
	if missCount != 1 || coalescedCount != n-1 {
		t.Fatalf("states: %d miss / %d coalesced, want 1 / %d", missCount, coalescedCount, n-1)
	}
}

// TestPeakCoalescingCollapsesIdenticalRequests is the /v1/peak twin:
// N identical peak requests held behind one leader cost one plan and
// one simulator run, and all N get the leader's bytes.
func TestPeakCoalescingCollapsesIdenticalRequests(t *testing.T) {
	const n = 24
	s, results := floodBehindLeader(t, "/v1/peak", n)
	if runs := s.Metrics().Counter("tsplit_simpool_gets_total"); runs != 1 {
		t.Fatalf("simulator runs = %d, want 1", runs)
	}
	if misses := s.Metrics().Counter("tsplit_serve_peak_cache_misses_total"); misses != n {
		t.Fatalf("peak cache misses = %d, want %d", misses, n)
	}
	for i, r := range results {
		if r.cache != "" {
			t.Fatalf("request %d: /v1/peak wrote X-Tsplit-Cache %q", i, r.cache)
		}
	}
	if got := postTo(s, "/v1/peak", specReq(7)); !bytes.Equal(got.body, results[0].body) ||
		s.Metrics().Counter("tsplit_simpool_gets_total") != 1 {
		t.Fatal("a request after the leader finished did not hit the leader's cached bytes")
	}
}

// TestPlanAndPeakOfOneKeyDoNotCoalesce holds a /v1/plan leader and a
// /v1/peak leader of the same key open at once: each endpoint has its
// own singleflight table, so neither joins the other, and each gets a
// body of its own schema.
func TestPlanAndPeakOfOneKeyDoNotCoalesce(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 2)
	cfg := Config{MaxConcurrent: 2}
	cfg.testHookPlanStart = func(key string) {
		started <- key
		<-release
	}
	s := New(cfg)

	var plan, peak result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); plan = postTo(s, "/v1/plan", specReq(9)) }()
	go func() { defer wg.Done(); peak = postTo(s, "/v1/peak", specReq(9)) }()
	if a, b := <-started, <-started; a != b {
		t.Fatalf("the two leaders hold different keys: %s and %s", a, b)
	}
	close(release)
	wg.Wait()

	if plan.code != http.StatusOK || peak.code != http.StatusOK {
		t.Fatalf("statuses %d (plan) and %d (peak), want 200 and 200", plan.code, peak.code)
	}
	if joined := s.Metrics().Counter("tsplit_serve_coalesced_total"); joined != 0 {
		t.Fatalf("coalesced = %d, want 0: a plan and a peak must not share a flight", joined)
	}
	if plan.cache != "miss" || peak.cache != "" || plan.key != peak.key {
		t.Fatalf("plan: cache %q key %s; peak: cache %q key %s", plan.cache, plan.key, peak.cache, peak.key)
	}
	var planBody PlanResponse
	var peakBody PeakResponse
	strict := func(b []byte, v any) error {
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	if err := strict(plan.body, &planBody); err != nil || len(planBody.Plan) == 0 {
		t.Fatalf("/v1/plan body is not a PlanResponse (%v): %s", err, plan.body)
	}
	if err := strict(peak.body, &peakBody); err != nil || peakBody.SimulatedPeakBytes <= 0 {
		t.Fatalf("/v1/peak body is not a PeakResponse (%v): %s", err, peak.body)
	}
	if peakBody.PlannerPeakBytes != planBody.PredictedPeakBytes {
		t.Fatalf("planner peak %d (peak) vs %d (plan) for one key", peakBody.PlannerPeakBytes, planBody.PredictedPeakBytes)
	}
}

// TestDistinctKeysEachPlanOnce mixes N identical and M distinct
// concurrent requests and asserts exactly one planner run per
// distinct key and no lost responses.
func TestDistinctKeysEachPlanOnce(t *testing.T) {
	const distinct = 4
	const perKey = 16
	s := New(Config{MaxConcurrent: 4, MaxQueue: distinct * perKey})

	var wg sync.WaitGroup
	results := make([]result, distinct*perKey)
	for k := 0; k < distinct; k++ {
		for i := 0; i < perKey; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				results[k*perKey+i] = post(s, specReq(100+k))
			}(k, i)
		}
	}
	wg.Wait()

	if runs := s.Metrics().Counter("tsplit_serve_planner_runs_total"); runs != distinct {
		t.Fatalf("planner runs = %d, want exactly %d (one per distinct key)", runs, distinct)
	}
	bodies := map[string][]byte{}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.code, r.body)
		}
		if prev, ok := bodies[r.key]; ok {
			if !bytes.Equal(prev, r.body) {
				t.Fatalf("key %s served two different bodies", r.key)
			}
		} else {
			bodies[r.key] = r.body
		}
	}
	if len(bodies) != distinct {
		t.Fatalf("saw %d distinct keys, want %d", len(bodies), distinct)
	}
	total := s.Metrics().Counter("tsplit_serve_cache_hits_total") +
		s.Metrics().Counter("tsplit_serve_cache_misses_total")
	if total != distinct*perKey {
		t.Fatalf("hits+misses = %d, want %d (no lost responses)", total, distinct*perKey)
	}
}

// eventKeys returns the "key" attribute of every flight event of the
// given kind, in recording order.
func eventKeys(fl *obs.Flight, kind string) []string {
	var keys []string
	for _, ev := range fl.Events() {
		if ev.Kind != kind {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "key" {
				keys = append(keys, a.Value)
			}
		}
	}
	return keys
}

// TestEvictionOrderIsDeterministic drives a capacity-2 cache through
// a fixed access sequence under a fake clock and asserts the exact
// eviction order via flight events.
func TestEvictionOrderIsDeterministic(t *testing.T) {
	clock := newFakeClock()
	fl := obs.NewFlight(0, clock.Now)
	s := New(Config{CacheEntries: 2, Clock: clock.Now, Flight: fl})

	keyA := post(s, specReq(1)).key // cache: [A]
	keyB := post(s, specReq(2)).key // cache: [B A]
	if got := post(s, specReq(1)).cache; got != "hit" {
		t.Fatalf("A should hit, got %q", got) // cache: [A B]
	}
	keyC := post(s, specReq(3)).key // evicts B -> [C A]
	keyD := post(s, specReq(4)).key // evicts A -> [D C]
	if got := post(s, specReq(3)).cache; got != "hit" {
		t.Fatalf("C should still be cached, got %q", got) // [C D]
	}
	_ = post(s, specReq(2)) // B was evicted: miss, plans again, evicts D

	evictions := eventKeys(fl, "serve.cache.evict")
	want := []string{keyB, keyA, keyD}
	if len(evictions) != len(want) {
		t.Fatalf("evictions: %v, want 3 in order [B A D]", evictions)
	}
	for i := range want {
		if evictions[i] != want[i] {
			t.Fatalf("eviction %d = %s, want %s (order must be LRU-deterministic)", i, evictions[i], want[i])
		}
	}
	if got := s.Metrics().Counter("tsplit_serve_cache_evictions_total"); got != 3 {
		t.Fatalf("eviction counter = %d, want 3", got)
	}
	_ = keyC
}

// TestAdmissionShedsOnlyAboveBound saturates MaxConcurrent planner
// slots and MaxQueue waiters, then checks that exactly the overflow
// requests shed with 429 + Retry-After while everything admitted
// completes.
func TestAdmissionShedsOnlyAboveBound(t *testing.T) {
	const conc, queue, extra = 2, 2, 3
	release := make(chan struct{})
	started := make(chan string, conc+queue+extra)
	cfg := Config{MaxConcurrent: conc, MaxQueue: queue, RetryAfterSeconds: 7}
	cfg.testHookPlanStart = func(key string) {
		started <- key
		<-release
	}
	s := New(cfg)

	var wg sync.WaitGroup
	running := make([]result, conc)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			running[i] = post(s, specReq(200+i))
		}(i)
	}
	for i := 0; i < conc; i++ {
		<-started // both slots held inside the planner
	}

	queued := make([]result, queue)
	for i := 0; i < queue; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queued[i] = post(s, specReq(300+i))
		}(i)
	}
	waitUntil(t, "queue to fill", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting == queue
	})

	// Above concurrency + queue: these must shed, immediately, with
	// 429 and the configured Retry-After — on either endpoint, since
	// both queue for the same planner slots.
	for i := 0; i < extra; i++ {
		path := []string{"/v1/plan", "/v1/peak"}[i%2]
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(specReq(400+i)))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("overflow %s request %d: status %d, want 429 (body %s)", path, i, w.Code, w.Body.String())
		}
		if got := w.Header().Get("Retry-After"); got != "7" {
			t.Fatalf("Retry-After = %q, want 7", got)
		}
		eb := ErrorBody{}
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code != "overloaded" {
			t.Fatalf("shed body: %s (err %v)", w.Body.String(), err)
		}
	}
	if shed := s.Metrics().Counter("tsplit_serve_shed_total"); shed != extra {
		t.Fatalf("shed counter = %d, want %d", shed, extra)
	}

	close(release)
	wg.Wait()
	for i, r := range append(append([]result{}, running...), queued...) {
		if r.code != http.StatusOK {
			t.Fatalf("admitted request %d shed or failed: status %d, body %s", i, r.code, r.body)
		}
	}
	// Nothing below the bound shed: 429s == extra, 200s == conc+queue.
	if ok := s.Metrics().Counter("tsplit_serve_requests_total", obs.L("code", "200")); ok != conc+queue {
		t.Fatalf("200s = %d, want %d", ok, conc+queue)
	}
	if shed := s.Metrics().Counter("tsplit_serve_requests_total", obs.L("code", "429")); shed != extra {
		t.Fatalf("429s = %d, want %d", shed, extra)
	}
}

// TestQueuedRequestTimesOut holds the only planner slot and checks a
// queued request answers 503 when its per-request timeout expires.
func TestQueuedRequestTimesOut(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 1)
	cfg := Config{MaxConcurrent: 1, MaxQueue: 4, RequestTimeout: 50 * time.Millisecond}
	cfg.testHookPlanStart = func(key string) {
		started <- key
		<-release
	}
	s := New(cfg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(s, specReq(500))
	}()
	<-started

	r := post(s, specReq(501)) // queues behind the held slot, then expires
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("queued+expired request: status %d, want 503 (body %s)", r.code, r.body)
	}
	eb := ErrorBody{}
	if err := json.Unmarshal(r.body, &eb); err != nil || eb.Error.Code != "timeout" {
		t.Fatalf("timeout body: %s", r.body)
	}
	close(release)
	wg.Wait()
}

// TestDrainLosesNoInflightRequest starts in-flight work, drains, and
// checks every admitted request completes while new ones answer 503.
func TestDrainLosesNoInflightRequest(t *testing.T) {
	const inflight = 3
	release := make(chan struct{})
	started := make(chan string, inflight)
	cfg := Config{MaxConcurrent: inflight}
	cfg.testHookPlanStart = func(key string) {
		started <- key
		<-release
	}
	s := New(cfg)

	var wg sync.WaitGroup
	results := make([]result, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = post(s, specReq(600+i))
		}(i)
	}
	for i := 0; i < inflight; i++ {
		<-started
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitUntil(t, "draining flag", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	r := post(s, specReq(700))
	if r.code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", r.code)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while requests were still in flight")
	default:
	}

	close(release)
	wg.Wait()
	<-drained
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("in-flight request %d lost during drain: status %d, body %s", i, r.code, r.body)
		}
	}
}

// TestConcurrentChaos hammers both endpoints from many goroutines
// mixing hits, misses, coalesced waits, and invalid requests under
// -race.
func TestConcurrentChaos(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MaxQueue: 1024, CacheEntries: 8})
	const workers = 64
	const perWorker = 8
	bodies := []string{
		specReq(1), specReq(2), specReq(3), specReq(4),
		`{"model":"nope"}`, `{"broken`,
	}
	var wg sync.WaitGroup
	codes := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := []string{"/v1/plan", "/v1/peak"}[(w/len(bodies)+i)%2]
				r := postTo(s, path, bodies[(w+i)%len(bodies)])
				codes[w] = append(codes[w], r.code)
			}
		}(w)
	}
	wg.Wait()
	var total int
	for _, cs := range codes {
		for _, c := range cs {
			total++
			switch c {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("unexpected status %d under load", c)
			}
		}
	}
	if total != workers*perWorker {
		t.Fatalf("lost responses: %d of %d", total, workers*perWorker)
	}
	if runs := s.Metrics().Counter("tsplit_serve_planner_runs_total"); runs != 4 {
		t.Fatalf("planner runs = %d, want 4 (one per distinct valid key)", runs)
	}
	if runs := s.Metrics().Counter("tsplit_simpool_gets_total"); runs != 4 {
		t.Fatalf("simulator runs = %d, want 4 (one per distinct valid key)", runs)
	}
}
