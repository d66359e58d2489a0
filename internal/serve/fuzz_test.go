package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tsplit/internal/baselines"
	"tsplit/internal/core"
)

// fuzzServer is shared across fuzz iterations so workload and plan
// caches amortize graph builds — the fuzzer mutates request bodies far
// faster than it invents new valid workloads.
var (
	fuzzOnce   sync.Once
	fuzzSrv    *Server
	fuzzVerify *workloadCache
)

func fuzzSetup() {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Config{MaxConcurrent: 2, MaxQueue: 64, CacheEntries: 128})
		fuzzVerify = New(Config{WorkloadEntries: 16}).workloads
	})
}

// fuzzPostTwice posts body to path twice. Both endpoints answer from
// content-addressed caches, so the repeat must agree with the first
// answer: the same status, and for a 200 the same bytes. No input may
// draw a 5xx other than 503. It returns the first answer.
func fuzzPostTwice(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var first *httptest.ResponseRecorder
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		fuzzSrv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code >= 500 && w.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s answered %d: %s (body %s)", path, w.Code, body, w.Body.String())
		}
		if first == nil {
			first = w
			continue
		}
		if w.Code != first.Code {
			t.Fatalf("%s answered %d, then %d, to the same bytes: %s", path, first.Code, w.Code, body)
		}
		if w.Code == http.StatusOK && !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: the repeated 200 is not byte-equal to the first: %s", path, body)
		}
	}
	return first
}

// FuzzPlanRequest drives arbitrary bytes through the full request
// path of both endpoints, twice each: decoding and validation must
// never panic, rejected requests must map to non-200 statuses, a
// repeated input must get its first answer again, every /v1/plan 200
// must be json.Marshal of its own decoded PlanResponse, and every
// accepted request must yield a plan that passes the core invariant
// verifier.
func FuzzPlanRequest(f *testing.F) {
	f.Add([]byte(`{"model":"vgg16","config":{"batch_size":16},"device":"GTX 1080Ti"}`))
	f.Add([]byte(`{"model":"resnet50","config":{"batch_size":8,"param_scale":0.5}}`))
	f.Add([]byte(`{"spec":{"seed":7},"device":"P100"}`))
	f.Add([]byte(`{"spec":{"seed":11},"options":{"policy":"tsplit-nosplit"}}`))
	f.Add([]byte(`{"spec":{"seed":3},"options":{"pnums":[2,4],"safety_margin":0.1,"report":true}}`))
	f.Add([]byte(`{"model":"vgg16","config":{"batch_size":16},"options":{"policy":"vdnn-conv"}}`))
	f.Add([]byte(`{"model":"vgg16","options":{"capacity_bytes":1}}`))
	f.Add([]byte(`{"model":"nosuch"}`))
	f.Add([]byte(`{"spec":{"seed":1},"config":{"batch_size":4}}`))
	f.Add([]byte(`{"model":"vgg16","spec":{"seed":1}}`))
	f.Add([]byte(`{"broken`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"model":"vgg16"}{"model":"vgg16"}`))
	f.Add([]byte(`{"model":"vgg16","config":{"batch_size":-3}}`))
	f.Add([]byte(`{"model":"vgg16","options":{"safety_margin":2.5}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzSetup()

		// Decoding and validation must never panic, whatever the bytes.
		req, herr := decodeRequest(body)

		// Neither must the handlers; their verdicts must agree with the
		// decoder's.
		w := fuzzPostTwice(t, "/v1/plan", body)
		pw := fuzzPostTwice(t, "/v1/peak", body)
		if herr != nil {
			if w.Code != herr.status || pw.Code != herr.status {
				t.Fatalf("handler statuses %d (plan) and %d (peak), validator says %d: %s", w.Code, pw.Code, herr.status, body)
			}
			eb := ErrorBody{}
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("rejection body is not a structured error: %s", w.Body.String())
			}
			return
		}
		for _, a := range []*httptest.ResponseRecorder{w, pw} {
			switch a.Code {
			case http.StatusOK, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("valid request answered %d: %s (body %s)", a.Code, body, a.Body.String())
			}
		}
		if w.Code != http.StatusOK {
			// The runtime can refuse a plan the planner believes in, never
			// run one the planner refused.
			if pw.Code == http.StatusOK {
				t.Fatalf("/v1/peak answered 200 to a request /v1/plan answers %d: %s", w.Code, body)
			}
			return
		}
		var resp PlanResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		// The hand-assembled body is exactly what encoding/json writes for
		// the value it decodes to (Marshal compacts the RawMessage plan).
		if again, err := json.Marshal(&resp); err != nil || !bytes.Equal(again, w.Body.Bytes()) {
			t.Fatalf("200 body is not json.Marshal of its own PlanResponse (%v):\ngot:  %.400s\nwant: %.400s", err, w.Body.Bytes(), again)
		}
		if pw.Code == http.StatusOK {
			var peak PeakResponse
			if err := json.Unmarshal(pw.Body.Bytes(), &peak); err != nil {
				t.Fatalf("/v1/peak 200 body does not decode: %v", err)
			}
			if peak.Key != resp.Key || peak.PlannerPeakBytes != resp.PredictedPeakBytes {
				t.Fatalf("/v1/peak (key %s, planner peak %d) and /v1/plan (key %s, predicted peak %d) disagree on %s",
					peak.Key, peak.PlannerPeakBytes, resp.Key, resp.PredictedPeakBytes, body)
			}
		}
		isTsplit := req.Options.Policy == "tsplit" || req.Options.Policy == "tsplit-nosplit"
		if isTsplit && resp.PredictedPeakBytes <= 0 {
			// Baseline producers don't predict a peak; the planner always
			// does.
			t.Fatalf("accepted tsplit plan has non-positive predicted peak %d", resp.PredictedPeakBytes)
		}

		// Re-plan the accepted request outside the HTTP path and hold the
		// in-memory plan to the core invariant verifier. tsplit policies
		// must fit their effective capacity; baseline policies only
		// guarantee structural invariants (some deliberately OOM), so they
		// verify against an unbounded capacity.
		wl, _, herr2 := fuzzVerify.get(context.Background(), req)
		if herr2 != nil {
			t.Fatalf("workload for accepted request does not build: %v", herr2)
		}
		var plan *core.Plan
		var err error
		capacity := int64(math.MaxInt64)
		switch req.Options.Policy {
		case "tsplit", "tsplit-nosplit":
			pl := wl.Planners.Get(core.Options{
				Capacity:     req.Options.CapacityBytes,
				DisableSplit: req.Options.DisableSplit || req.Options.Policy == "tsplit-nosplit",
				PNums:        req.Options.PNums,
				SafetyMargin: req.Options.SafetyMargin,
			})
			plan, err = pl.Plan()
			wl.Planners.Put(pl)
			capacity = req.Options.CapacityBytes
			if capacity <= 0 {
				capacity = wl.Dev.MemBytes
			}
		default:
			// The server cached this policy's plan; reproduce it the same
			// way buildPlan does.
			plan, err = baselines.Registry[req.Options.Policy](baselines.Inputs{
				G: wl.G, Sched: wl.Sched, Lv: wl.Lv, Prof: wl.Prof, Dev: wl.Dev,
			})
		}
		if err != nil {
			t.Fatalf("server served a plan the planner now refuses (%s): %v", req.Options.Policy, err)
		}
		if violations := core.VerifyAt(plan, wl.G, wl.Sched, wl.Lv, capacity); len(violations) != 0 {
			for _, v := range violations {
				t.Errorf("accepted plan violates invariant: %s", v)
			}
			t.Fatalf("plan for %s failed core verification", body)
		}
	})
}
