package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tsplit/internal/obs"
)

// chromeEvent is one event of the Chrome/Perfetto trace format
// (catapult trace_event): "X" complete slices, "M" metadata, "C"
// counter samples, and "s"/"f" flow arrows.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow-event binding
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object trace container.
type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	Metadata    map[string]string `json:"metadata,omitempty"`
}

// Reserved thread ids for the three simulator streams; further lanes
// (unknown stream names) are allocated from firstDynamicTID upward in
// order of first appearance, so the mapping is stable for a given
// timeline.
const (
	tidCompute      = 1
	tidD2H          = 2
	tidH2D          = 3
	firstDynamicTID = 4
	tracePID        = 1
)

// counter-track thread ids (Perfetto renders counters per track name,
// the tid only groups them under the process).
const tidCounters = 100

// tidSpans is the lane carrying obs.Tracer spans (planner phases,
// per-op sim spans) when the caller merges them into the trace.
const tidSpans = 200

// streamTIDs returns the lane mapping for a timeline: the three known
// streams on their reserved rows, any other stream name on a freshly
// allocated row.
func streamTIDs(timeline []TimelinePoint) map[string]int {
	tids := map[string]int{"": tidCompute, "compute": tidCompute, "d2h": tidD2H, "h2d": tidH2D}
	next := firstDynamicTID
	for _, p := range timeline {
		if _, ok := tids[p.Stream]; !ok {
			tids[p.Stream] = next
			next++
		}
	}
	return tids
}

// WriteChromeTraceSpans exports a timeline (Options.CollectTimeline)
// in Chrome tracing format: open in chrome://tracing or
// https://ui.perfetto.dev to see the compute stream overlapping the two
// copy streams — the execution picture behind the paper's
// PCIe-utilization claims.
//
// Beyond the "X" slices the trace carries:
//   - "M" metadata naming the process and every stream lane;
//   - "C" counter tracks for device memory in use, external
//     fragmentation, and per-direction PCIe bandwidth;
//   - "s"/"f" flow arrows linking each tensor's swap-out to the
//     swap-in that returns it;
//   - args (bytes, tensor, memory) on every slice.
//
// A non-nil spans adds a "spans" lane: the flattened obs.Tracer span
// forest (planner phases, per-op execution, ladder rungs) rendered as
// "X" slices on their own thread row. Span timestamps are
// tracer-relative microseconds — a separate timebase from the
// simulated-seconds timeline, kept on a separate lane for exactly that
// reason. Open (never-ended) spans render with zero duration and an
// open:true arg.
//
// Event order is fully deterministic: events (spans included) are
// sorted by (timestamp, thread, name) with a stable sort, and span args
// marshal in sorted key order, so identical inputs serialize
// identically.
func WriteChromeTraceSpans(w io.Writer, timeline []TimelinePoint, spans []*obs.SpanNode) error {
	tids := streamTIDs(timeline)
	tr := chromeTrace{Metadata: map[string]string{"tool": "tsplit sim"}}

	// Legend: process and per-lane thread names.
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": "tsplit sim"},
	})
	// Several names can share a TID; pick the winner for each lane in
	// sorted-name order so the legend is identical run to run, then
	// order lanes by TID (ties already broken by the name dedupe).
	names := make([]string, 0, len(tids))
	for name := range tids {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	laneNames := make([]string, 0, len(names))
	seenTID := map[int]bool{}
	for _, name := range names {
		if seenTID[tids[name]] {
			continue
		}
		seenTID[tids[name]] = true
		laneNames = append(laneNames, name)
	}
	sort.SliceStable(laneNames, func(i, j int) bool { return tids[laneNames[i]] < tids[laneNames[j]] })
	for _, name := range laneNames {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tids[name],
			Args: map[string]any{"name": name},
		})
	}
	if len(spans) > 0 {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: tidSpans,
			Args: map[string]any{"name": "spans"},
		})
		var emit func(n *obs.SpanNode)
		emit = func(n *obs.SpanNode) {
			args := make(map[string]any, len(n.Attrs)+1)
			for _, a := range n.Attrs {
				args[a.Key] = a.Value
			}
			dur := n.DurMicros
			if dur < 0 {
				dur = 0
				args["open"] = true
			}
			if len(args) == 0 {
				args = nil
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: n.Name, Cat: "span", Ph: "X",
				TS: float64(n.StartMicros), Dur: float64(dur),
				PID: tracePID, TID: tidSpans, Args: args,
			})
			for _, c := range n.Children {
				emit(c)
			}
		}
		for _, n := range spans {
			emit(n)
		}
	}

	counter := func(ts float64, name string, args map[string]any) chromeEvent {
		return chromeEvent{Name: name, Cat: "memory", Ph: "C", TS: ts, PID: tracePID, TID: tidCounters, Args: args}
	}

	// Flow pairing: each swap-in binds to the latest preceding swap-out
	// of the same tensor; only complete pairs emit arrows, so every "s"
	// has a matching "f".
	type outRef struct {
		start, end float64
	}
	lastOut := map[string]outRef{}
	flowID := 0

	for _, p := range timeline {
		cat := p.Stream
		if cat == "" {
			cat = "compute"
		}
		args := map[string]any{"mem_used_bytes": p.MemUsed, "frag_bytes": p.FragBytes}
		if p.Bytes > 0 {
			args["bytes"] = p.Bytes
		}
		if p.Tensor != "" {
			args["tensor"] = p.Tensor
		}
		ts, dur := p.Start*1e6, (p.End-p.Start)*1e6
		tid := tids[p.Stream]
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: p.Name, Cat: cat, Ph: "X",
			TS: ts, Dur: dur, PID: tracePID, TID: tid, Args: args,
		})

		// Counter samples at the slice start.
		tr.TraceEvents = append(tr.TraceEvents,
			counter(ts, "device memory", map[string]any{"bytes": p.MemUsed}),
			counter(ts, "fragmentation", map[string]any{"bytes": p.FragBytes}),
		)
		if p.Bytes > 0 && p.End > p.Start && (p.Stream == "d2h" || p.Stream == "h2d") {
			bw := float64(p.Bytes) / (p.End - p.Start)
			name := "pcie " + p.Stream + " B/s"
			tr.TraceEvents = append(tr.TraceEvents,
				counter(ts, name, map[string]any{"value": bw}),
				counter(p.End*1e6, name, map[string]any{"value": 0.0}),
			)
		}

		// Flow bookkeeping.
		if p.Tensor != "" {
			switch p.Stream {
			case "d2h":
				lastOut[p.Tensor] = outRef{start: p.Start, end: p.End}
			case "h2d":
				if out, ok := lastOut[p.Tensor]; ok && out.end <= p.Start+1e-12 {
					id := fmt.Sprintf("swap-%d", flowID)
					flowID++
					// "s" binds inside the swap-out slice, "f" (bp:"e") to
					// the swap-in slice that encloses its timestamp.
					tr.TraceEvents = append(tr.TraceEvents,
						chromeEvent{Name: "swap", Cat: "swap", Ph: "s", ID: id,
							TS: out.start * 1e6, PID: tracePID, TID: tidD2H,
							Args: map[string]any{"tensor": p.Tensor}},
						chromeEvent{Name: "swap", Cat: "swap", Ph: "f", BP: "e", ID: id,
							TS: ts, PID: tracePID, TID: tids[p.Stream],
							Args: map[string]any{"tensor": p.Tensor}},
					)
					delete(lastOut, p.Tensor)
				}
			}
		}
	}

	sort.SliceStable(tr.TraceEvents, func(i, j int) bool {
		a, b := tr.TraceEvents[i], tr.TraceEvents[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}
