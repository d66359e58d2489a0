package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/prep"
)

// zooReq is a /v1/plan body for model at cfg, planned at pct% of the
// workload's unmanaged peak.
func zooReq(t *testing.T, model string, cfg ModelConfig, pct int64) string {
	t.Helper()
	req := &PlanRequest{Model: model, Config: cfg}
	p, err := prep.Build(model, req.modelConfig(), device.TitanRTX)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"model":%q,"config":{"batch_size":%d,"param_scale":%g,"image_size":%d,"seq_len":%d},"options":{"capacity_bytes":%d}}`,
		model, cfg.BatchSize, cfg.ParamScale, cfg.ImageSize, cfg.SeqLen, p.Lv.Peak*pct/100)
}

// TestRebatchedAnswersMatchFreshServer sends every zoo model at batches
// 0 (the default), 1, N and N+k under memory pressure, and at N and N+k with each of
// param_scale 1.5, image_size 160 and seq_len 64, through one server
// whose one-entry workload cache evicts on every request: after each
// key's first build, fresh, its workloads are rebatched from the key's
// template, and some into a slot an evicted workload released. Every
// body and X-Tsplit-Key must equal a fresh server's, whose only build
// is fresh.
func TestRebatchedAnswersMatchFreshServer(t *testing.T) {
	const n, k = 16, 5
	s := New(Config{WorkloadEntries: 1})
	var requests, keys int64
	for _, m := range models.Names() {
		cfgs := []ModelConfig{{BatchSize: 0}, {BatchSize: 1}, {BatchSize: n}, {BatchSize: n + k}}
		for _, v := range []ModelConfig{{ParamScale: 1.5}, {ImageSize: 160}, {SeqLen: 64}} {
			for _, b := range []int{n, n + k} {
				v.BatchSize = b
				cfgs = append(cfgs, v)
			}
		}
		requests += int64(len(cfgs))
		keys += 4
		for _, cfg := range cfgs {
			// 80% of the peak makes every plan swap, recompute or split;
			// at batch 1 the parameters alone overflow it, so batch 1
			// plans for the whole device (capacity 0).
			pct := int64(80)
			if cfg.BatchSize == 1 {
				pct = 0
			}
			body := zooReq(t, m, cfg, pct)
			got, want := post(s, body), post(New(Config{}), body)
			if got.code != http.StatusOK || want.code != http.StatusOK {
				t.Fatalf("%s %+v: status %d, fresh server %d: %s", m, cfg, got.code, want.code, got.body)
			}
			if got.key != want.key || !bytes.Equal(got.body, want.body) {
				t.Fatalf("%s %+v: key or body differs from a fresh server's", m, cfg)
			}
		}
	}
	reg := s.Metrics()
	if got := reg.Counter("tsplit_serve_workload_builds_total"); got != requests {
		t.Fatalf("%d workloads prepared for %d cold requests", got, requests)
	}
	if got, want := reg.Counter(prep.GraphBuilds), 3*keys; got != want {
		t.Fatalf("%d graph builds for %d template keys, want %d", got, keys, want)
	}
	if slots, templated := reg.Counter(prep.WorkloadSlots), requests-keys; slots >= templated {
		t.Fatalf("%d slots for %d rebatched workloads: none was recycled", slots, templated)
	}
}

// TestColdBatchesBuildThreeGraphs pins the work of one model asked for
// at many batches: the first batch builds fresh, the second builds the
// template at batch 1 and 2, and every later one rebatches — 1 + 2
// graph builds however many batches. The same batch asked again after
// its eviction rebatches too.
func TestColdBatchesBuildThreeGraphs(t *testing.T) {
	s := New(Config{WorkloadEntries: 2})
	for _, b := range []int{8, 3, 16, 5, 8, 1, 24, 3} {
		r := post(s, fmt.Sprintf(`{"model":"resnet50","config":{"batch_size":%d}}`, b))
		if r.code != http.StatusOK {
			t.Fatalf("batch %d: status %d, body %s", b, r.code, r.body)
		}
	}
	reg := s.Metrics()
	if got := reg.Counter(prep.GraphBuilds); got != 3 {
		t.Fatalf("%d graph builds for one model at 6 batches, want 1 + 2", got)
	}
	if got := reg.Counter("tsplit_serve_workload_builds_total"); got != 8 {
		t.Fatalf("%d workloads prepared for 8 cold requests", got)
	}
	if got := reg.Counter(prep.WorkloadSlots); got != 3 {
		t.Fatalf("%d slots for 7 rebatched workloads through a two-entry cache, want 3", got)
	}
}

// residentSlot is the template slot of the workload resident under id,
// or nil.
func residentSlot(s *Server, id string) *prep.Prepared {
	s.workloads.mu.Lock()
	defer s.workloads.mu.Unlock()
	if w, ok := s.workloads.lru.get(id); ok {
		return w.Prepared
	}
	return nil
}

func batchReq(b int, capacity int64) string {
	return fmt.Sprintf(`{"model":"vgg16","config":{"batch_size":%d},"options":{"capacity_bytes":%d}}`, b, capacity)
}

// TestEvictedSlotWaitsForHolder holds the leader of a plan on
// workload A in its run slot while other cold batches evict A: A's
// slot must not be rebatched for anyone while the leader holds it, the
// leader's body must equal a fresh server's, and once it returns the
// next cold batch recycles A's slot.
func TestEvictedSlotWaitsForHolder(t *testing.T) {
	const capacity = 3 << 30
	held := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{WorkloadEntries: 1, MaxConcurrent: 2}
	var keyA string
	cfg.testHookPlanStart = func(key string) {
		if key == keyA {
			close(held)
			<-release
		}
	}
	s := New(cfg)
	// Batch 8 builds fresh and batch 16 builds the template: A, batch
	// 24, is rebatched into a new slot.
	for _, b := range []int{8, 16} {
		if r := post(s, batchReq(b, capacity)); r.code != http.StatusOK {
			t.Fatalf("batch %d: status %d, body %s", b, r.code, r.body)
		}
	}
	reqA, herr := decodeRequest([]byte(batchReq(24, capacity)))
	if herr != nil {
		t.Fatal(herr)
	}
	keyA = post(New(Config{}), batchReq(24, capacity)).key
	var a result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); a = post(s, batchReq(24, capacity)) }()
	<-held
	slotA := residentSlot(s, reqA.workloadID())
	if slotA == nil {
		t.Fatal("A is not resident while its leader plans")
	}
	for _, b := range []int{32, 40, 48} {
		if r := post(s, batchReq(b, capacity)); r.code != http.StatusOK {
			t.Fatalf("batch %d during A's run: status %d, body %s", b, r.code, r.body)
		}
		req, _ := decodeRequest([]byte(batchReq(b, capacity)))
		if residentSlot(s, req.workloadID()) == slotA {
			t.Fatalf("batch %d was rebatched into A's slot while A's leader held it", b)
		}
	}
	close(release)
	wg.Wait()
	want := post(New(Config{}), batchReq(24, capacity))
	if a.code != http.StatusOK || a.key != want.key || !bytes.Equal(a.body, want.body) {
		t.Fatalf("A's leader answered status %d with other bytes than a fresh server", a.code)
	}
	if r := post(s, batchReq(56, capacity)); r.code != http.StatusOK {
		t.Fatalf("batch 56: status %d, body %s", r.code, r.body)
	}
	req, _ := decodeRequest([]byte(batchReq(56, capacity)))
	if residentSlot(s, req.workloadID()) != slotA {
		t.Fatal("the batch after A's release did not recycle A's slot")
	}
}

// TestRecycledSlotKeepsItsSimulators: a workload rebatched into a
// released slot runs its peaks on the simulators the slot kept.
// Through a one-entry workload cache, batch 8 builds fresh, batch 16
// builds the template into a new slot, and batch 24 into a second one
// while 16 holds the first, evicting 16. Batch 32 is rebatched into
// 16's slot, so its first /v1/peak recycles the arena 16's peak left
// there (one reuse hit), and answers a fresh server's bytes.
func TestRecycledSlotKeepsItsSimulators(t *testing.T) {
	const capacity = 3 << 30
	s := New(Config{WorkloadEntries: 1})
	for _, b := range []int{8, 16, 24} {
		if r := postTo(s, "/v1/peak", batchReq(b, capacity)); r.code != http.StatusOK {
			t.Fatalf("batch %d: status %d, body %s", b, r.code, r.body)
		}
	}
	reg := s.Metrics()
	slots, hits := reg.Counter(prep.WorkloadSlots), reg.Counter("tsplit_simpool_reuse_hits_total")
	got := postTo(s, "/v1/peak", batchReq(32, capacity))
	want := postTo(New(Config{}), "/v1/peak", batchReq(32, capacity))
	if got.code != http.StatusOK || !bytes.Equal(got.body, want.body) {
		t.Fatalf("batch 32: status %d, or other bytes than a fresh server's:\n%s\nwant\n%s", got.code, got.body, want.body)
	}
	if n := reg.Counter(prep.WorkloadSlots) - slots; n != 0 {
		t.Fatalf("batch 32 allocated %d slots; it should recycle batch 16's", n)
	}
	if n := reg.Counter("tsplit_simpool_reuse_hits_total") - hits; n != 1 {
		t.Fatalf("batch 32's first peak recycled %d simulators, want the 1 its slot kept", n)
	}
}

// TestTemplateSoak has two clients ask one model for a shared mix of
// batches and budgets through a two-entry workload cache, so builds
// coalesce, workloads are evicted while the other client holds them,
// slots are released and recycled concurrently (run under -race) and
// resident workloads plan new keys. Every answer must match a fresh
// server's; the model costs 1 + 2 graph builds; and a slot is
// allocated only while none is free, so no more exist than the cache's
// entries plus one per client.
func TestTemplateSoak(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const clients, rounds = 2, 60
	batches := []int{8, 12, 8, 20, 12, 4, 20, 16, 4, 28}
	type op struct {
		batch    int
		capacity int64
	}
	opOf := func(c, i int) op {
		return op{batches[(i+c*(i%2))%len(batches)], 3<<30 + int64(i%5)<<26}
	}
	want := map[op]result{}
	for c := 0; c < clients; c++ {
		for i := 0; i < rounds; i++ {
			if o := opOf(c, i); want[o].body == nil {
				want[o] = post(New(Config{}), batchReq(o.batch, o.capacity))
			}
		}
	}
	s := New(Config{WorkloadEntries: 2, MaxConcurrent: clients})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				o := opOf(c, i)
				r, w := post(s, batchReq(o.batch, o.capacity)), want[o]
				if r.code != http.StatusOK || r.key != w.key || !bytes.Equal(r.body, w.body) {
					t.Errorf("client %d, %+v: status %d, or other bytes than a fresh server", c, o, r.code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	reg := s.Metrics()
	if got := reg.Counter(prep.GraphBuilds); got != 3 {
		t.Errorf("%d graph builds for one model, want 1 + 2", got)
	}
	if got := reg.Counter(prep.WorkloadSlots); got > 2+clients {
		t.Errorf("%d slots allocated, more than 2 entries + %d clients", got, clients)
	}
	s.workloads.mu.Lock()
	defer s.workloads.mu.Unlock()
	if s.workloads.lru.len() > 2 || s.workloads.templates.len() != 1 {
		t.Errorf("%d workloads and %d templates resident", s.workloads.lru.len(), s.workloads.templates.len())
	}
}
