package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/sim"
)

// postPeak sends one peak request and returns the recorder.
func postPeak(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/peak", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodePeak(t *testing.T, w *httptest.ResponseRecorder) *PeakResponse {
	t.Helper()
	var resp PeakResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not a PeakResponse: %v\nbody: %s", err, w.Body.String())
	}
	return &resp
}

// TestPeakEndpointMatchesSimulator checks POST /v1/peak against an
// out-of-band full simulation of the same plan: the endpoint's
// simulated peak must be the exact Run() peak, and repeated requests
// must recycle the workload's simulator arena (reuse-hit metric).
func TestPeakEndpointMatchesSimulator(t *testing.T) {
	s := New(Config{})
	body := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"}`

	w := postPeak(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodePeak(t, w)
	if resp.Policy != "tsplit" || resp.SimulatedPeakBytes <= 0 {
		t.Fatalf("bad response: %+v", resp)
	}

	// Reproduce the plan over /v1/plan and simulate it independently.
	pw := postPlan(t, s, body)
	if pw.Code != http.StatusOK {
		t.Fatalf("plan status %d: %s", pw.Code, pw.Body.String())
	}
	planResp := decodeResponse(t, pw)
	if resp.PlannerPeakBytes != planResp.PredictedPeakBytes {
		t.Fatalf("planner peak diverges from /v1/plan: %d vs %d",
			resp.PlannerPeakBytes, planResp.PredictedPeakBytes)
	}
	if resp.Key != planResp.Key {
		t.Fatalf("peak key %s != plan key %s for the same request", resp.Key, planResp.Key)
	}

	g, err := models.Build("vgg16", models.Config{BatchSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatal(err)
	}
	lv := graph.AnalyzeLiveness(g, sched)
	// The serve workload cache holds the same prepared graph the
	// endpoint planned against; rebuild is only for the simulator run.
	wl, herr := s.workloads.get(&PlanRequest{Model: "vgg16",
		Config: ModelConfig{BatchSize: 96}, Device: "GTX 1080Ti",
		Options: PlanOptions{Policy: "tsplit"}})
	if herr != nil {
		t.Fatalf("workload: %v", herr)
	}
	pl := wl.pool.Get(core.Options{})
	plan, err := pl.Plan()
	wl.pool.Put(pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(g, sched, lv, plan, wl.dev, sim.Options{Recompute: sim.LRURecompute}).Run()
	if err != nil {
		t.Fatalf("reference simulation: %v", err)
	}
	if resp.SimulatedPeakBytes != res.PeakBytes {
		t.Fatalf("/v1/peak returned %d, full simulation peaks at %d",
			resp.SimulatedPeakBytes, res.PeakBytes)
	}

	// Second request on the same workload must hit the warm arena.
	if w2 := postPeak(t, s, body); w2.Code != http.StatusOK {
		t.Fatalf("second peak status %d: %s", w2.Code, w2.Body.String())
	}
	snap := s.Metrics().Snapshot()
	vals := map[string]float64{}
	for _, m := range snap {
		vals[m.Name] = m.Value
	}
	if vals["tsplit_simpool_gets_total"] < 2 {
		t.Fatalf("simpool gets_total = %v, want >= 2", vals["tsplit_simpool_gets_total"])
	}
	if vals["tsplit_simpool_reuse_hits_total"] < 1 {
		t.Fatalf("simpool reuse_hits_total = %v, want >= 1", vals["tsplit_simpool_reuse_hits_total"])
	}
}

// TestPeakWithReportOption: "report" is part of the plan key, so
// /v1/peak echoes the key /v1/plan gives the same request, and the
// answer is the one the request gets without it.
func TestPeakWithReportOption(t *testing.T) {
	s := New(Config{})
	base := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"`
	plain := decodePeak(t, postPeak(t, s, base+`}`))
	withBody := base + `,"options":{"report":true}}`
	w := postPeak(t, s, withBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	with := decodePeak(t, w)
	if want := decodeResponse(t, postPlan(t, s, withBody)).Key; with.Key != want || with.Key == plain.Key {
		t.Fatalf("key %s, want the report:true plan key %s (plain key %s)", with.Key, want, plain.Key)
	}
	if with.SimulatedPeakBytes != plain.SimulatedPeakBytes || with.PlannerPeakBytes != plain.PlannerPeakBytes {
		t.Fatalf("report option changed the answer: %+v vs %+v", with, plain)
	}
}
