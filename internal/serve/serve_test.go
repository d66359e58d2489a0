package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsplit/internal/core"
	"tsplit/internal/obs"
	"tsplit/internal/prep"
)

var update = flag.Bool("update", false, "rewrite golden response files")

// postPlan sends one plan request and returns the recorder.
func postPlan(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeResponse(t *testing.T, w *httptest.ResponseRecorder) *PlanResponse {
	t.Helper()
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response is not a PlanResponse: %v\nbody: %s", err, w.Body.String())
	}
	return &resp
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) *ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("response is not an ErrorBody: %v\nbody: %s", err, w.Body.String())
	}
	return &eb
}

// TestGoldenResponses pins the exact response bytes for the two
// evaluation workloads the ISSUE names. The planner is deterministic,
// so the full body — plan, predicted peak, key — must be stable
// byte-for-byte; regenerate with `go test ./internal/serve -run
// TestGoldenResponses -update` after an intentional planner change.
func TestGoldenResponses(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		req  string
	}{
		// vgg16 batch 96 does not fit a GTX 1080Ti unmanaged: the plan
		// carries real split/swap/recompute decisions.
		{"vgg16", `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"}`},
		// bert-large batch 64 against a 12 GiB budget on the TITAN RTX
		// (roughly the paper's Fig. 1 pressure point).
		{"bert-large", `{"model":"bert-large","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":12884901888}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPlan(t, s, tc.req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200; body: %s", w.Code, w.Body.String())
			}
			if got := w.Header().Get("X-Tsplit-Cache"); got != "miss" {
				t.Fatalf("X-Tsplit-Cache = %q, want miss", got)
			}
			var indented bytes.Buffer
			if err := json.Indent(&indented, w.Body.Bytes(), "", "  "); err != nil {
				t.Fatalf("indent: %v", err)
			}
			indented.WriteByte('\n')
			golden := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, indented.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(indented.Bytes(), want) {
				t.Fatalf("response diverges from %s (rerun with -update after an intentional planner change)\ngot:  %.400s...\nwant: %.400s...",
					golden, indented.String(), string(want))
			}
			resp := decodeResponse(t, w)
			if resp.PredictedPeakBytes <= 0 {
				t.Fatalf("predicted peak %d, want > 0", resp.PredictedPeakBytes)
			}
			if resp.Policy != "tsplit" {
				t.Fatalf("policy %q, want tsplit", resp.Policy)
			}
		})
	}
}

// TestPlanBodyMatchesMarshal holds the one-pass /v1/plan body to what
// encoding/json writes for the same PlanResponse value — the plan
// exported, then compacted as a RawMessage — with the report off and
// on, over zoo models, a spec graph and a baseline policy.
func TestPlanBodyMatchesMarshal(t *testing.T) {
	s := New(Config{})
	for _, req := range []string{
		`{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti","options":{"report":false}}`,
		`{"model":"bert-large","config":{"batch_size":64},"options":{"capacity_bytes":12884901888,"report":false}}`,
		`{"model":"resnet50","config":{"batch_size":128},"device":"P100","options":{"pnums":[2,4,8],"report":false}}`,
		`{"spec":{"seed":7},"device":"P100","options":{"report":false}}`,
		`{"model":"vgg16","config":{"batch_size":64},"options":{"policy":"superneurons","report":false}}`,
		`{"model":"bert-large","config":{"batch_size":16},"options":{"policy":"zero-offload","report":false}}`,
	} {
		for _, report := range []bool{false, true} {
			body := req
			if report {
				body = strings.Replace(req, `"report":false`, `"report":true`, 1)
			}
			w := postPlan(t, s, body)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, w.Code, w.Body.String())
			}
			pr, herr := decodeRequest([]byte(body))
			if herr != nil {
				t.Fatal(herr)
			}
			wl, _, herr := s.workloads.get(context.Background(), pr)
			if herr != nil {
				t.Fatal(herr)
			}
			plan, rep, herr := s.buildPlan(pr.Options, wl)
			if herr != nil {
				t.Fatal(herr)
			}
			// Only the tsplit planner writes a report.
			if wantReport := report && strings.HasPrefix(pr.Options.Policy, "tsplit"); (rep != nil) != wantReport {
				t.Fatalf("%s: report present %v, want %v", body, rep != nil, wantReport)
			}
			var planJSON bytes.Buffer
			if err := core.ExportJSON(&planJSON, plan); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(&PlanResponse{
				Key:                  planKey(wl.digest, wl.Dev, pr.Options),
				Model:                pr.displayName(),
				Device:               wl.Dev.Name,
				Policy:               pr.Options.Policy,
				PredictedPeakBytes:   plan.PredictedPeak,
				PredictedPeakGiB:     float64(plan.PredictedPeak) / (1 << 30),
				PredictedTimeSeconds: plan.PredictedTime,
				Plan:                 json.RawMessage(planJSON.Bytes()),
				Report:               rep,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s: body diverges from json.Marshal\ngot:  %.400s\nwant: %.400s", body, w.Body.String(), want)
			}
		}
	}
}

// TestCacheHitIsByteIdentical sends the same request twice and a
// semantically identical variant once: the repeat and the variant must
// both hit and return exactly the bytes the miss produced.
func TestCacheHitIsByteIdentical(t *testing.T) {
	s := New(Config{})
	req := `{"model":"vgg16","config":{"batch_size":64},"device":"TITAN RTX","options":{"capacity_bytes":6442450944}}`
	first := postPlan(t, s, req)
	if first.Code != http.StatusOK {
		t.Fatalf("miss status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Tsplit-Cache"); got != "miss" {
		t.Fatalf("first request X-Tsplit-Cache = %q, want miss", got)
	}
	second := postPlan(t, s, req)
	if second.Code != http.StatusOK {
		t.Fatalf("hit status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Tsplit-Cache"); got != "hit" {
		t.Fatalf("second request X-Tsplit-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cache hit bytes differ from the miss that created the entry")
	}
	// Different spelling, same content: field order and explicit
	// defaults must not change the key.
	variant := `{"device":"TITAN RTX","options":{"policy":"tsplit","capacity_bytes":6442450944},"config":{"batch_size":64,"param_scale":0},"model":"vgg16"}`
	third := postPlan(t, s, variant)
	if got := third.Header().Get("X-Tsplit-Cache"); got != "hit" {
		t.Fatalf("variant spelling X-Tsplit-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("variant-spelling hit bytes differ")
	}
	if hits := s.Metrics().Counter("tsplit_serve_cache_hits_total"); hits != 2 {
		t.Fatalf("cache hits counter = %d, want 2", hits)
	}
	if runs := s.Metrics().Counter("tsplit_serve_planner_runs_total"); runs != 1 {
		t.Fatalf("planner runs = %d, want 1", runs)
	}
}

// TestSpecGraphPlans exercises the inline graph-spec path.
func TestSpecGraphPlans(t *testing.T) {
	s := New(Config{})
	w := postPlan(t, s, `{"spec":{"seed":42},"device":"P100"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)
	if resp.Model != "spec(seed=42)" {
		t.Fatalf("model %q", resp.Model)
	}
	again := postPlan(t, s, `{"spec":{"seed":42},"device":"P100"}`)
	if got := again.Header().Get("X-Tsplit-Cache"); got != "hit" {
		t.Fatalf("repeat spec request X-Tsplit-Cache = %q, want hit", got)
	}
}

// TestBaselinePolicy plans through a baseline producer.
func TestBaselinePolicy(t *testing.T) {
	s := New(Config{})
	w := postPlan(t, s, `{"model":"vgg16","config":{"batch_size":32},"options":{"policy":"vdnn-conv"}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)
	if resp.Policy != "vdnn-conv" {
		t.Fatalf("policy %q, want vdnn-conv", resp.Policy)
	}
}

// TestReportRequested asks for the per-request plan report and checks
// that it is present, and that report/no-report are distinct cache
// keys.
func TestReportRequested(t *testing.T) {
	s := New(Config{})
	base := `{"model":"vgg16","config":{"batch_size":96},"device":"GTX 1080Ti"`
	plain := postPlan(t, s, base+`}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status %d", plain.Code)
	}
	if decodeResponse(t, plain).Report != nil {
		t.Fatal("unrequested report present")
	}
	with := postPlan(t, s, base+`,"options":{"report":true}}`)
	if with.Code != http.StatusOK {
		t.Fatalf("report status %d: %s", with.Code, with.Body.String())
	}
	if got := with.Header().Get("X-Tsplit-Cache"); got != "miss" {
		t.Fatalf("report request X-Tsplit-Cache = %q, want miss (distinct key)", got)
	}
	resp := decodeResponse(t, with)
	if resp.Report == nil || len(resp.Report.Decisions) == 0 {
		t.Fatalf("report missing or empty: %+v", resp.Report)
	}
}

// TestErrorResponses covers the structured error surface, and the
// 200 of a request it must not reject. /v1/plan and /v1/peak share the
// pipeline that produces it, so every row must hold on both.
func TestErrorResponses(t *testing.T) {
	s := New(Config{})
	drained := New(Config{})
	drained.Drain()
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", `{"model":`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"model":"vgg16","oops":1}`, http.StatusBadRequest, "bad_request"},
		{"no model or spec", `{}`, http.StatusBadRequest, "bad_request"},
		{"both model and spec", `{"model":"vgg16","spec":{"seed":1}}`, http.StatusBadRequest, "bad_request"},
		{"unknown model", `{"model":"alexnet"}`, http.StatusNotFound, "unknown_model"},
		{"unknown policy", `{"model":"vgg16","options":{"policy":"magic"}}`, http.StatusNotFound, "unknown_policy"},
		{"unknown device", `{"model":"vgg16","device":"TPU"}`, http.StatusBadRequest, "bad_request"},
		{"batch too large", `{"model":"vgg16","config":{"batch_size":4096}}`, http.StatusBadRequest, "bad_request"},
		{"negative capacity", `{"model":"vgg16","options":{"capacity_bytes":-1}}`, http.StatusBadRequest, "bad_request"},
		{"margin too large", `{"model":"vgg16","options":{"safety_margin":0.95}}`, http.StatusBadRequest, "bad_request"},
		{"pnum too small", `{"model":"vgg16","options":{"pnums":[1]}}`, http.StatusBadRequest, "bad_request"},
		{"spec with config", `{"spec":{"seed":1},"config":{"batch_size":8}}`, http.StatusBadRequest, "bad_request"},
		{"baseline with planner knobs", `{"model":"vgg16","options":{"policy":"vdnn-all","disable_split":true}}`, http.StatusBadRequest, "bad_request"},
		{"every table policy is served", `{"model":"vgg16","options":{"policy":"tsplit-offload"}}`, http.StatusOK, ""},
		{"infeasible", `{"model":"bert-large","config":{"batch_size":512},"device":"P100","options":{"capacity_bytes":1048576}}`, http.StatusUnprocessableEntity, "infeasible"},
		{"image below the receptive field", `{"model":"inceptionv4","config":{"batch_size":2,"image_size":32}}`, http.StatusBadRequest, "bad_request"},
		{"body too large", `{"model":"` + strings.Repeat("a", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"not POST", ``, http.StatusMethodNotAllowed, "method_not_allowed"},
		{"draining", `{"model":"vgg16"}`, http.StatusServiceUnavailable, "draining"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range []string{"/v1/plan", "/v1/peak"} {
				t.Run(path[len("/v1/"):], func(t *testing.T) {
					srv, method := s, http.MethodPost
					switch tc.wantCode {
					case "method_not_allowed":
						method = http.MethodGet
					case "draining":
						srv = drained
					}
					w := httptest.NewRecorder()
					srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(tc.body)))
					if w.Code != tc.wantStatus {
						t.Fatalf("status %d, want %d; body: %.200s", w.Code, tc.wantStatus, w.Body.String())
					}
					if w.Code == http.StatusOK {
						return
					}
					eb := decodeError(t, w)
					if eb.Error.Code != tc.wantCode {
						t.Fatalf("error code %q, want %q (message: %s)", eb.Error.Code, tc.wantCode, eb.Error.Message)
					}
					if eb.Error.Message == "" {
						t.Fatal("empty error message")
					}
					if got := w.Header().Get("Allow"); (got == http.MethodPost) != (w.Code == http.StatusMethodNotAllowed) {
						t.Fatalf("Allow = %q on a %d", got, w.Code)
					}
				})
			}
		})
	}
}

// TestImageBelowModelMinimum pins the per-model image floor: a size
// under the model's minimum is refused with a message naming it, and
// before any graph is built; the minimum itself is planned.
func TestImageBelowModelMinimum(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/v1/plan", "/v1/peak"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path,
			strings.NewReader(`{"model":"inceptionv4","config":{"batch_size":2,"image_size":74}}`)))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body: %.200s", path, w.Code, w.Body.String())
		}
		const want = "config.image_size 74 below minimum 75 for inceptionv4"
		if eb := decodeError(t, w); eb.Error.Code != "bad_request" || eb.Error.Message != want {
			t.Fatalf("%s: error %q %q, want bad_request %q", path, eb.Error.Code, eb.Error.Message, want)
		}
	}
	if got := s.Metrics().Counter(prep.GraphBuilds); got != 0 {
		t.Fatalf("refused requests built %d graphs", got)
	}
	if w := postPlan(t, s, `{"model":"inceptionv4","config":{"batch_size":2,"image_size":75}}`); w.Code != http.StatusOK {
		t.Fatalf("image size 75: status %d; body: %.200s", w.Code, w.Body.String())
	}
	if got := s.Metrics().Counter(prep.GraphBuilds); got == 0 {
		t.Fatal("the accepted request built no graph: the counter does not see builds")
	}
}

// healthz fetches the liveness probe's body.
func healthz(t *testing.T, s *Server) map[string]any {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var h map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return h
}

// TestHealthz round-trips the liveness probe.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	postPlan(t, s, `{"model":"vgg16","config":{"batch_size":32}}`)
	h := healthz(t, s)
	if h["status"] != "ok" {
		t.Fatalf("status %v", h["status"])
	}
	if h["plans_cached"].(float64) != 1 || h["workloads_cached"].(float64) != 1 {
		t.Fatalf("cache occupancy wrong: %v", h)
	}
}

// TestMetricsRoundTripThroughDoctor scrapes GET /metrics and feeds the
// text straight into tsplit-doctor's Prometheus parser: every serve
// counter and histogram must survive the round trip.
func TestMetricsRoundTripThroughDoctor(t *testing.T) {
	s := New(Config{})
	req := `{"model":"vgg16","config":{"batch_size":64},"options":{"capacity_bytes":6442450944}}`
	postPlan(t, s, req)
	postPlan(t, s, req)
	postPlan(t, s, `{"model":"nope"}`)

	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	metrics, err := obs.ParsePrometheus(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("doctor's parser rejected /metrics output: %v", err)
	}
	byKey := map[string]obs.Metric{}
	for _, m := range metrics {
		key := m.Name
		for _, l := range m.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		byKey[key] = m
	}
	checks := map[string]int64{
		"tsplit_serve_requests_total|code=200": 2,
		"tsplit_serve_requests_total|code=404": 1,
		"tsplit_serve_cache_hits_total":        1,
		"tsplit_serve_cache_misses_total":      1,
		"tsplit_serve_planner_runs_total":      1,
	}
	for key, want := range checks {
		m, ok := byKey[key]
		if !ok {
			t.Fatalf("metric %s missing after round trip (have %d metrics)", key, len(metrics))
		}
		if m.Int != want {
			t.Fatalf("metric %s = %d, want %d", key, m.Int, want)
		}
	}
	lat, ok := byKey["tsplit_serve_request_seconds"]
	if !ok || lat.Histogram == nil {
		t.Fatal("request-latency histogram missing after round trip")
	}
	if lat.Histogram.Count != 3 {
		t.Fatalf("latency histogram count %d, want 3", lat.Histogram.Count)
	}
}

// TestDoctorDiagnosesServerDump builds a postmortem dump from the
// server's flight ring, registry, and tracer, and checks the doctor
// surfaces the serve phases and cache events.
func TestDoctorDiagnosesServerDump(t *testing.T) {
	tr := obs.NewTracer(nil)
	fl := obs.NewFlight(0, nil)
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, Trace: tr, Flight: fl})
	req := `{"model":"vgg16","config":{"batch_size":64},"options":{"capacity_bytes":6442450944}}`
	postPlan(t, s, req)
	postPlan(t, s, req)

	dump := &obs.Dump{Reason: "serve test", Events: fl.Events(), Metrics: reg.Snapshot(), Spans: tr.Tree()}
	diag := obs.Diagnose(dump, nil)
	phases := map[string]int{}
	for _, ph := range diag.Phases {
		phases[ph.Name] = ph.Count
	}
	if phases["serve.request"] != 2 {
		t.Fatalf("serve.request phase count %d, want 2 (phases: %v)", phases["serve.request"], phases)
	}
	if phases["serve.plan"] != 1 {
		t.Fatalf("serve.plan phase count %d, want 1", phases["serve.plan"])
	}
	events := map[string]int{}
	for _, ec := range diag.EventCounts {
		events[ec.Kind] = ec.Count
	}
	if events["serve.cache.miss"] != 1 || events["serve.cache.hit"] != 1 {
		t.Fatalf("cache events wrong: %v", events)
	}
}
