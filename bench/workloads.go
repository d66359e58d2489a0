package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"tsplit/internal/core"
	"tsplit/internal/sim"
)

// population is how many distinct keys plan_hit and peak cycle over:
// two of each (model, capacity stratum) pair, so every seed draws the
// same composition, and few enough to fit the server's 512-entry plan
// cache.
const population = 2 * 7 * strata

// missWarmup is how many unique-key requests plan_miss's set-up sends:
// enough to fill the 512-entry plan cache, so that every timed request
// evicts as well as inserts.
const missWarmup = 640

// verifyEvery: every verifyEvery-th plan_miss reply is kept and
// re-derived out of band after the timed run.
const verifyEvery = 64

// verifyStride: plan_hit and peak compare every reply byte for byte
// with its key's set-up reply, so re-deriving each verifyStride-th key
// out of band covers every reply to those keys.
const verifyStride = 4

// requestWorkload is one of the three HTTP workloads.
type requestWorkload interface {
	// setup brings a fresh server to the state the timed run starts
	// from and returns the first request index of the timed run.
	setup(cs []*client) (first int, err error)
	// op sends request i and checks the reply inline.
	op(c *client, i int) (time.Duration, bool)
	// verify re-derives the sampled replies out of band, after the
	// timed run, and returns how many it checked and how many failed.
	verify() (checked, failed int)
}

// inputs are the harness-side workloads every request workload draws
// from, built once per run from the seed.
type inputs struct {
	zoo  []*prepared
	seed uint64
}

func newInputs(seed uint64) (*inputs, error) {
	z, err := prepareAll(zoo)
	if err != nil {
		return nil, err
	}
	return &inputs{zoo: z, seed: seed}, nil
}

// ---- plan_miss ----

// planMiss: POST /v1/plan, every key unique. 7 in 8 requests name a
// prewarmed zoo workload; every 8th names one the server must build.
type planMiss struct {
	mix    *mix
	warmup int
	mu     sync.Mutex
	// sampled replies awaiting verify()
	samples []planSample
}

type planSample struct {
	req  request
	body []byte
}

func newPlanMiss(in *inputs, warmup int) (*planMiss, error) {
	cold, err := prepareAll(coldEntries())
	if err != nil {
		return nil, err
	}
	m := newMix(in.seed, in.zoo, 0.50, 0.80)
	m.cold = cold
	return &planMiss{mix: m, warmup: warmup}, nil
}

func (w *planMiss) setup(cs []*client) (int, error) {
	w.samples = w.samples[:0]
	var next atomic.Int64
	seg := drive(cs, &next, int64(w.warmup), 0, func(c *client, i int) (time.Duration, bool) {
		rep, lat, err := c.post("/v1/plan", w.mix.warm(i).body())
		return lat, err == nil && rep.status == http.StatusOK
	})
	if seg.failed > 0 {
		return 0, fmt.Errorf("plan_miss set-up: %d of %d warm-up requests failed", seg.failed, w.warmup)
	}
	return w.warmup, nil
}

func (w *planMiss) op(c *client, i int) (time.Duration, bool) {
	r := w.mix.miss(i)
	rep, lat, err := c.post("/v1/plan", r.body())
	if err != nil || rep.status != http.StatusOK || rep.cache != "miss" {
		return lat, false
	}
	if i%verifyEvery == 0 {
		s := planSample{req: r, body: append([]byte(nil), rep.body...)}
		w.mu.Lock()
		w.samples = append(w.samples, s)
		w.mu.Unlock()
	}
	return lat, true
}

func (w *planMiss) verify() (checked, failed int) {
	var v planVerifier
	for _, s := range w.samples {
		if err := v.check(s.req, s.body); err != nil {
			failed++
			logf("plan_miss check: %s b%d capacity %d: %v", s.req.W.Model, s.req.W.Batch, s.req.Capacity, err)
		}
	}
	return len(w.samples), failed
}

// planVerifier checks /v1/plan replies against plans derived out of
// band on a fresh, non-pooled planner: the body carries that plan and
// its predicted peak. The first plan it sees of each model also goes
// through core.VerifyAt at the requested capacity, which must find it
// clean; VerifyAt replays the plan through the memory pool and takes
// 0.05-0.4 s on the larger graphs, so a run affords one per model.
type planVerifier struct{ replayed map[string]bool }

func (v *planVerifier) check(r request, body []byte) error {
	var got struct {
		PredictedPeakBytes int64           `json:"predicted_peak_bytes"`
		Plan               json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	w := r.W
	plan, err := core.NewPlanner(w.G, w.Sched, w.Lv, w.Prof, dev, core.Options{Capacity: r.Capacity}).Plan()
	if err != nil {
		return fmt.Errorf("out-of-band plan: %w", err)
	}
	if got.PredictedPeakBytes != plan.PredictedPeak {
		return fmt.Errorf("predicted_peak_bytes %d, out-of-band plan predicts %d", got.PredictedPeakBytes, plan.PredictedPeak)
	}
	var want bytes.Buffer
	if err := core.ExportJSON(&want, plan); err != nil {
		return fmt.Errorf("exporting out-of-band plan: %w", err)
	}
	var gotPlan, wantPlan core.PlanJSON
	if err := json.Unmarshal(got.Plan, &gotPlan); err != nil {
		return fmt.Errorf("decoding reply plan: %w", err)
	}
	if err := json.Unmarshal(want.Bytes(), &wantPlan); err != nil {
		return fmt.Errorf("decoding out-of-band plan: %w", err)
	}
	if !reflect.DeepEqual(gotPlan, wantPlan) {
		return fmt.Errorf("reply plan differs from the out-of-band plan")
	}
	if v.replayed[w.Model] {
		return nil
	}
	if v.replayed == nil {
		v.replayed = map[string]bool{}
	}
	v.replayed[w.Model] = true
	if vs := core.VerifyAt(plan, w.G, w.Sched, w.Lv, r.Capacity); len(vs) > 0 {
		return fmt.Errorf("core.VerifyAt: %d violations, first: %+v", len(vs), vs[0])
	}
	return nil
}

// ---- plan_hit and peak: a fixed population of keys ----

// keyed is the state the two population workloads share: the keys,
// the reply each key got during set-up, and the visiting order.
type keyed struct {
	mix    *mix
	path   string
	reqs   []request
	bodies [][]byte // set-up reply per key
	order  []int
}

func newKeyed(in *inputs, path string, lo, hi float64, keys int) keyed {
	return keyed{
		mix: newMix(in.seed, in.zoo, lo, hi), path: path,
		reqs: make([]request, keys), bodies: make([][]byte, keys),
		order: order(in.seed, keys),
	}
}

// visit sends the request of the i-th visited key and checks the reply
// is byte-equal to the key's set-up reply.
func (k *keyed) visit(c *client, i int, cache string) (time.Duration, bool) {
	key := k.order[i%len(k.order)]
	rep, lat, err := c.post(k.path, k.reqs[key].body())
	ok := err == nil && rep.status == http.StatusOK && rep.cache == cache && bytes.Equal(rep.body, k.bodies[key])
	return lat, ok
}

// planHit: POST /v1/plan over keys planned during set-up.
type planHit struct{ keyed }

func newPlanHit(in *inputs, keys int) *planHit {
	return &planHit{newKeyed(in, "/v1/plan", 0.50, 0.80, keys)}
}

func (w *planHit) setup(cs []*client) (int, error) {
	n := len(w.reqs)
	var next atomic.Int64
	seg := drive(cs, &next, int64(n), 0, func(c *client, i int) (time.Duration, bool) {
		w.reqs[i] = w.mix.warm(i)
		rep, lat, err := c.post(w.path, w.reqs[i].body())
		if err != nil || rep.status != http.StatusOK || rep.cache != "miss" {
			return lat, false
		}
		w.bodies[i] = append(w.bodies[i][:0], rep.body...)
		return lat, true
	})
	if seg.failed > 0 {
		return 0, fmt.Errorf("plan_hit set-up: %d of %d population requests failed", seg.failed, n)
	}
	// One visit per key: connections and the hit path are warm, and a
	// key that does not hit fails the run before it is timed.
	next.Store(0)
	seg = drive(cs, &next, int64(n), 0, w.op)
	if seg.failed > 0 {
		return 0, fmt.Errorf("plan_hit set-up: %d of %d keys did not hit with the planned body", seg.failed, n)
	}
	return n, nil
}

func (w *planHit) op(c *client, i int) (time.Duration, bool) { return w.visit(c, i, "hit") }

func (w *planHit) verify() (checked, failed int) {
	var v planVerifier
	for k := 0; k < len(w.reqs); k += verifyStride {
		checked++
		if err := v.check(w.reqs[k], w.bodies[k]); err != nil {
			failed++
			logf("plan_hit check: key %d: %v", k, err)
		}
	}
	return checked, failed
}

// peak: POST /v1/peak over a fixed population of keys.
type peak struct {
	keyed
	redraws int // keys whose first capacity the runtime answered 422
}

func newPeak(in *inputs, keys int) *peak {
	return &peak{keyed: newKeyed(in, "/v1/peak", 0.55, 0.80, keys)}
}

func (w *peak) setup(cs []*client) (int, error) {
	n := len(w.reqs)
	var next atomic.Int64
	var redraws atomic.Int64
	seg := drive(cs, &next, int64(n), 0, func(c *client, i int) (time.Duration, bool) {
		var total time.Duration
		for shift := 0; shift <= strata; shift++ {
			w.reqs[i] = w.mix.redrawn(i, shift)
			rep, lat, err := c.post(w.path, w.reqs[i].body())
			total += lat
			if err == nil && rep.status == http.StatusUnprocessableEntity {
				redraws.Add(1)
				continue
			}
			if err != nil || rep.status != http.StatusOK {
				return total, false
			}
			w.bodies[i] = append(w.bodies[i][:0], rep.body...)
			return total, true
		}
		return total, false
	})
	w.redraws = int(redraws.Load())
	if seg.failed > 0 {
		return 0, fmt.Errorf("peak set-up: %d of %d population requests failed", seg.failed, n)
	}
	return n, nil
}

func (w *peak) op(c *client, i int) (time.Duration, bool) { return w.visit(c, i, "") }

// verify compares simulated_peak_bytes with the peak of a full timed
// run on a fresh, non-pooled simulator.
func (w *peak) verify() (checked, failed int) {
	for k := 0; k < len(w.reqs); k += verifyStride {
		checked++
		if err := verifyPeakBody(w.reqs[k], w.bodies[k]); err != nil {
			failed++
			logf("peak check: key %d: %v", k, err)
		}
	}
	return checked, failed
}

// peakReply is the part of a /v1/peak body the harness reads.
type peakReply struct {
	SimulatedPeakBytes int64 `json:"simulated_peak_bytes"`
	PlannerPeakBytes   int64 `json:"planner_peak_bytes"`
}

func verifyPeakBody(r request, body []byte) error {
	var got peakReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	w := r.W
	plan, err := core.NewPlanner(w.G, w.Sched, w.Lv, w.Prof, dev, core.Options{Capacity: r.Capacity}).Plan()
	if err != nil {
		return fmt.Errorf("out-of-band plan: %w", err)
	}
	res, err := sim.New(w.G, w.Sched, w.Lv, plan, dev, simOptions(r.Capacity)).Run()
	if err != nil {
		return fmt.Errorf("out-of-band run: %w", err)
	}
	if got.SimulatedPeakBytes != res.PeakBytes {
		return fmt.Errorf("simulated_peak_bytes %d, a fresh full run peaks at %d", got.SimulatedPeakBytes, res.PeakBytes)
	}
	if got.PlannerPeakBytes != plan.PredictedPeak {
		return fmt.Errorf("planner_peak_bytes %d, out-of-band plan predicts %d", got.PlannerPeakBytes, plan.PredictedPeak)
	}
	return nil
}

// simOptions is the runtime configuration /v1/peak simulates under.
func simOptions(capacity int64) sim.Options {
	return sim.Options{Capacity: capacity, Recompute: sim.LRURecompute}
}
