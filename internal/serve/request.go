package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/prep"
)

// Validation ceilings: a planning service fielding arbitrary clients
// must bound the work one request can demand. These are generous for
// the paper's evaluation space and still keep a worst-case request in
// the tens of milliseconds.
const (
	MaxBatchSize  = 1024
	MaxParamScale = 8.0
	MaxImageSize  = 512
	MaxSeqLen     = 512
	MaxPNums      = 8
	MaxPNum       = 64
)

// GraphSpec is the inline alternative to a zoo model name: a seed for
// the deterministic random-graph generator (internal/workload). Same
// seed, same graph, same digest — spec-built plans cache exactly like
// zoo plans.
type GraphSpec struct {
	Seed uint64 `json:"seed"`
}

// ModelConfig mirrors models.Config for the wire: only the scaling
// knobs a client may set.
type ModelConfig struct {
	BatchSize  int     `json:"batch_size,omitempty"`
	ParamScale float64 `json:"param_scale,omitempty"`
	ImageSize  int     `json:"image_size,omitempty"`
	SeqLen     int     `json:"seq_len,omitempty"`
}

// PlanOptions are the planner knobs a request may set. Policy selects
// the producer, any name of the policy table (prep.Policies): "tsplit"
// (default), "tsplit-nosplit", "tsplit-offload" or a baseline. The
// other knobs apply to the tsplit policies only.
type PlanOptions struct {
	Policy        string  `json:"policy,omitempty"`
	CapacityBytes int64   `json:"capacity_bytes,omitempty"`
	DisableSplit  bool    `json:"disable_split,omitempty"`
	PNums         []int   `json:"pnums,omitempty"`
	SafetyMargin  float64 `json:"safety_margin,omitempty"`
	// Report asks for the planner's per-iteration PlanReport in the
	// response. It is part of the cache key: a cached body either
	// carries the (deterministic) report or does not.
	Report bool `json:"report,omitempty"`
}

// PlanRequest is the POST /v1/plan body. Exactly one of Model and
// Spec must be set.
type PlanRequest struct {
	Model   string      `json:"model,omitempty"`
	Spec    *GraphSpec  `json:"spec,omitempty"`
	Config  ModelConfig `json:"config,omitempty"`
	Device  string      `json:"device,omitempty"`
	Options PlanOptions `json:"options,omitempty"`
}

// PlanResponse is the POST /v1/plan success body. Cache status
// travels in the X-Tsplit-Cache header (hit | miss | coalesced), not
// in the body, so a cache hit can return the stored bytes verbatim.
type PlanResponse struct {
	Key                  string           `json:"key"`
	Model                string           `json:"model"`
	Device               string           `json:"device"`
	Policy               string           `json:"policy"`
	PredictedPeakBytes   int64            `json:"predicted_peak_bytes"`
	PredictedPeakGiB     float64          `json:"predicted_peak_gib"`
	PredictedTimeSeconds float64          `json:"predicted_time_seconds"`
	Plan                 json.RawMessage  `json:"plan"`
	Report               *core.PlanReport `json:"report,omitempty"`
}

// PeakResponse is the POST /v1/peak success body: the peak of the
// requested plan's simulated iteration (a Run() on a pooled arena),
// alongside the planner's static estimate for comparison. Like a
// PlanResponse it is a pure function of Key and is cached as
// serialized bytes, so it carries no cache status; unlike one, no
// header carries it either.
type PeakResponse struct {
	Key                string  `json:"key"`
	Model              string  `json:"model"`
	Device             string  `json:"device"`
	Policy             string  `json:"policy"`
	SimulatedPeakBytes int64   `json:"simulated_peak_bytes"`
	SimulatedPeakGiB   float64 `json:"simulated_peak_gib"`
	PlannerPeakBytes   int64   `json:"planner_peak_bytes"`
}

// ErrorBody is the structured error envelope every non-2xx response
// carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class (a stable machine-readable code)
// and explains it.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError pairs a status code with its structured body.
type httpError struct {
	status  int
	code    string
	message string
}

func (e *httpError) Error() string { return fmt.Sprintf("%d %s: %s", e.status, e.code, e.message) }

// errTimeout is the 503 of a request whose context expired while it
// waited; where names what it waited in or for.
func errTimeout(where string) *httpError {
	return &httpError{status: http.StatusServiceUnavailable, code: "timeout", message: "request expired " + where}
}

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

// decodeRequest parses and validates a request body. It returns a
// *httpError (never a bare error) so handlers can map failures
// directly onto status codes: malformed JSON and out-of-range fields
// are 400, an unknown model or policy is 404.
func decodeRequest(body []byte) (*PlanRequest, *httpError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, errBadRequest("invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, errBadRequest("trailing data after request object")
	}
	if err := validateRequest(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateRequest normalizes and bounds-checks a decoded request in
// place.
func validateRequest(req *PlanRequest) *httpError {
	if (req.Model == "") == (req.Spec == nil) {
		return errBadRequest("exactly one of \"model\" and \"spec\" must be set")
	}
	if req.Model != "" && !models.Known(req.Model) {
		return &httpError{status: http.StatusNotFound, code: "unknown_model",
			message: fmt.Sprintf("unknown model %q (have %v)", req.Model, models.Names())}
	}
	c := req.Config
	if c.BatchSize < 0 || c.BatchSize > MaxBatchSize {
		return errBadRequest("config.batch_size %d out of range [0, %d]", c.BatchSize, MaxBatchSize)
	}
	if c.ParamScale < 0 || c.ParamScale > MaxParamScale {
		return errBadRequest("config.param_scale %g out of range [0, %g]", c.ParamScale, MaxParamScale)
	}
	if c.ParamScale != 0 && c.ParamScale < 0.1 {
		return errBadRequest("config.param_scale %g below minimum 0.1", c.ParamScale)
	}
	if c.ImageSize < 0 || c.ImageSize > MaxImageSize {
		return errBadRequest("config.image_size %d out of range [0, %d]", c.ImageSize, MaxImageSize)
	}
	if c.ImageSize != 0 && req.Model != "" {
		// Refused before any build: a smaller image collapses one of the
		// model's window ops partway through building its graph.
		if floor := models.MinImageSize(req.Model); c.ImageSize < floor {
			return errBadRequest("config.image_size %d below minimum %d for %s", c.ImageSize, floor, req.Model)
		}
	}
	if c.SeqLen < 0 || c.SeqLen > MaxSeqLen {
		return errBadRequest("config.seq_len %d out of range [0, %d]", c.SeqLen, MaxSeqLen)
	}
	if c.SeqLen != 0 && c.SeqLen < 8 {
		return errBadRequest("config.seq_len %d below minimum 8", c.SeqLen)
	}
	if req.Spec != nil && (c.BatchSize != 0 || c.ParamScale != 0 || c.ImageSize != 0 || c.SeqLen != 0) {
		return errBadRequest("config does not apply to spec-built graphs (the seed fixes every dimension)")
	}
	if req.Device == "" {
		req.Device = device.TitanRTX.Name
	}
	if _, err := device.ByName(req.Device); err != nil {
		return errBadRequest("unknown device %q", req.Device)
	}
	o := &req.Options
	if o.Policy == "" {
		o.Policy = "tsplit"
	}
	pol, err := prep.Lookup(o.Policy)
	if err != nil {
		return &httpError{status: http.StatusNotFound, code: "unknown_policy", message: err.Error()}
	}
	if o.CapacityBytes < 0 {
		return errBadRequest("options.capacity_bytes must be >= 0 (0 = device capacity)")
	}
	if o.SafetyMargin < 0 || o.SafetyMargin > 0.9 {
		return errBadRequest("options.safety_margin %g out of range [0, 0.9]", o.SafetyMargin)
	}
	if len(o.PNums) > MaxPNums {
		return errBadRequest("options.pnums has %d entries, max %d", len(o.PNums), MaxPNums)
	}
	for _, p := range o.PNums {
		if p < 2 || p > MaxPNum {
			return errBadRequest("options.pnums entry %d out of range [2, %d]", p, MaxPNum)
		}
	}
	if len(o.PNums) == 0 {
		o.PNums = nil // nil and [] must share a cache key
	}
	if !pol.Planner && (o.DisableSplit || len(o.PNums) > 0 || o.SafetyMargin != 0) {
		// Baseline producers ignore planner knobs; rejecting them keeps
		// equivalent requests on one cache key.
		return errBadRequest("options.disable_split/pnums/safety_margin apply only to the tsplit policies")
	}
	return nil
}

// workloadID is the normalized identity of a (graph source, config,
// device) triple — the workload cache key. It is a human-readable
// string rather than a hash so flight events and tests can name it:
// "spec:<seed>|dev:<device>" or
// "model:<name>|b:<batch>|ps:<scale %g>|img:<size>|seq:<len>|dev:<device>".
// Every request computes it, so it is appended into a stack buffer
// and allocates only the string.
func (req *PlanRequest) workloadID() string {
	var arr [128]byte
	b := arr[:0]
	if req.Spec != nil {
		b = append(b, "spec:"...)
		b = strconv.AppendUint(b, req.Spec.Seed, 10)
	} else {
		c := req.Config
		b = append(b, "model:"...)
		b = append(b, req.Model...)
		b = append(b, "|b:"...)
		b = strconv.AppendInt(b, int64(c.BatchSize), 10)
		b = append(b, "|ps:"...)
		b = strconv.AppendFloat(b, c.ParamScale, 'g', -1, 64)
		b = append(b, "|img:"...)
		b = strconv.AppendInt(b, int64(c.ImageSize), 10)
		b = append(b, "|seq:"...)
		b = strconv.AppendInt(b, int64(c.SeqLen), 10)
	}
	b = append(b, "|dev:"...)
	b = append(b, req.Device...)
	return string(b)
}

// templateID is the workloadID of a zoo request with the batch
// zeroed: the key of the template its workloads are rebatched from.
func (req *PlanRequest) templateID() string {
	r := *req
	r.Config.BatchSize = 0
	return r.workloadID()
}

// modelConfig is the zoo configuration a request names.
func (req *PlanRequest) modelConfig() models.Config {
	c := req.Config
	return models.Config{BatchSize: c.BatchSize, ParamScale: c.ParamScale, ImageSize: c.ImageSize, SeqLen: c.SeqLen}
}

// displayName is the model label echoed in responses.
func (req *PlanRequest) displayName() string {
	if req.Spec != nil {
		return fmt.Sprintf("spec(seed=%d)", req.Spec.Seed)
	}
	return req.Model
}
