// Package serve turns the TSPLIT planner into a long-running
// planning service: an HTTP server that accepts (graph, device,
// options) requests and answers with the plan, its predicted peak, and
// an optional per-request plan report. Plans are content-addressed by
// a canonical hash of the *built* graph plus the device profile and
// the normalized planner options, so two requests that describe the
// same workload differently (a zoo name vs. the spec that generates
// the same graph) still share one cache entry, one planner run, and
// byte-identical response bodies.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"tsplit/internal/device"
	"tsplit/internal/graph"
)

// The digests below serialise their input as a stream of 8-byte
// little-endian words, a string as its length then its bytes, so
// adjacent fields can never alias each other (the classic "ab"+"c" ==
// "a"+"bc" collision). The append helpers build that stream in a
// caller-owned buffer; the bytes, not the helpers, are the format.

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendInt(b []byte, v int) []byte    { return appendU64(b, uint64(int64(v))) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendU64(b, 1)
	}
	return appendU64(b, 0)
}

func appendStr(b []byte, s string) []byte {
	return append(appendU64(b, uint64(len(s))), s...)
}

// digestChunk is how many serialised bytes graphDigest gathers before
// it hands them to SHA-256: large enough that the per-Write cost of
// the hash.Hash interface (one call per 8-byte field made the digest
// as dear as building the graph) disappears, small enough that the
// buffer is not worth counting against a build's allocation.
const digestChunk = 4 << 10

// graphDigest hashes the structural content of a graph: every tensor
// (name, shape, dtype, kind) and every op (name, kind, phase, attrs,
// workspace, input/output/control edges by tensor and op ID) in their
// creation order, which BuildSchedule and the planner also key off.
// Two graphs with the same digest plan identically on the same device
// under the same options.
func graphDigest(g *graph.Graph) [sha256.Size]byte {
	h := sha256.New()
	// One buffer for the whole graph, flushed after the record that
	// fills a chunk. A record (one tensor or op) is a few hundred bytes;
	// one with a longer name grows the buffer once and the rest reuse it.
	b := make([]byte, 0, 2*digestChunk)
	flushFull := func() {
		if len(b) >= digestChunk {
			_, _ = h.Write(b) // hash.Hash.Write never errors
			b = b[:0]
		}
	}
	b = appendStr(b, "tsplit.graph.v1")
	b = appendInt(b, len(g.Tensors))
	for _, t := range g.Tensors {
		b = appendInt(b, t.ID)
		b = appendStr(b, t.Name)
		b = appendInt(b, len(t.Shape))
		for _, dim := range t.Shape {
			b = appendInt(b, dim)
		}
		b = appendInt(b, int(t.DType))
		b = appendInt(b, int(t.Kind))
		flushFull()
	}
	b = appendInt(b, len(g.Ops))
	for _, op := range g.Ops {
		b = appendInt(b, op.ID)
		b = appendStr(b, op.Name)
		b = appendInt(b, int(op.Kind))
		b = appendInt(b, int(op.Phase))
		b = appendI64(b, op.Workspace)
		a := op.Attrs
		b = appendInt(b, a.KernelH)
		b = appendInt(b, a.KernelW)
		b = appendInt(b, a.StrideH)
		b = appendInt(b, a.StrideW)
		b = appendInt(b, a.PadH)
		b = appendInt(b, a.PadW)
		b = appendInt(b, a.Axis)
		b = appendF64(b, a.Prob)
		b = appendInt(b, len(op.Inputs))
		for _, t := range op.Inputs {
			b = appendInt(b, t.ID)
		}
		b = appendInt(b, len(op.Outputs))
		for _, t := range op.Outputs {
			b = appendInt(b, t.ID)
		}
		b = appendInt(b, len(op.ControlDeps))
		for _, c := range op.ControlDeps {
			b = appendInt(b, c.ID)
		}
		if op.FwdOp != nil {
			b = appendInt(b, op.FwdOp.ID)
		} else {
			b = appendInt(b, -1)
		}
		flushFull()
	}
	_, _ = h.Write(b) // hash.Hash.Write never errors
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// planKeyBytes holds the serialised fields of any key a validated
// request can produce: ~190 bytes of fixed fields and digest, the
// longest device and policy names (under 20 bytes each) and MaxPNums
// split counts.
const planKeyBytes = 384

// planKey derives the content address of one plan: the graph digest,
// the device profile fields the planner and cost model read, and the
// normalized request options (policy, capacity, split knobs, margin,
// and whether the cached body carries a plan report — the report is
// deterministic for a key, so it is part of the cached bytes rather
// than recomputed per request).
//
// It runs on every request, hits included, so it serialises into a
// stack array and hashes once: the only allocation is the returned
// string. (Input past planKeyBytes — no validated request — spills to
// the heap through append and still keys correctly.)
func planKey(gd [sha256.Size]byte, dev device.Device, o PlanOptions) string {
	var arr [planKeyBytes]byte
	b := appendStr(arr[:0], "tsplit.plan.v1")
	b = append(b, gd[:]...)
	b = appendStr(b, dev.Name)
	b = appendI64(b, dev.MemBytes)
	b = appendF64(b, dev.PeakFLOPS)
	b = appendF64(b, dev.MemBandwidth)
	b = appendF64(b, dev.PCIeBandwidth)
	b = appendF64(b, dev.KernelLaunch)
	b = appendF64(b, dev.SaturationFLOP)
	b = appendStr(b, o.Policy)
	b = appendI64(b, o.CapacityBytes)
	b = appendBool(b, o.DisableSplit)
	b = appendF64(b, o.SafetyMargin)
	b = appendInt(b, len(o.PNums))
	for _, p := range o.PNums {
		b = appendInt(b, p)
	}
	b = appendBool(b, o.Report)
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}
