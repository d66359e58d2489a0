package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"tsplit/internal/models"
)

// decodedTrace mirrors the wire format for test inspection.
type decodedTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		ID   string         `json:"id"`
		BP   string         `json:"bp"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func decodeTrace(t *testing.T, timeline []TimelinePoint) (decodedTrace, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTraceSpans(&buf, timeline, nil); err != nil {
		t.Fatal(err)
	}
	var tr decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	return tr, buf.Bytes()
}

// TestChromeTraceExport validates the enriched trace end to end:
// slices for every timeline point, non-negative durations, one
// consistent TID per stream, the M-event legend, counter tracks, and
// swap flow arrows that pair up.
func TestChromeTraceExport(t *testing.T) {
	b := mkbed(t, "vgg16", models.Config{BatchSize: 64})
	plan := b.baseline(t, "vdnn-all")
	r := b.run(t, plan, Options{CollectTimeline: true})
	streams := map[string]bool{}
	for _, p := range r.Timeline {
		streams[p.Stream] = true
	}
	if !streams["d2h"] || !streams["h2d"] {
		t.Fatalf("missing copy-stream events: %v", streams)
	}

	tr, raw := decodeTrace(t, r.Timeline)

	// Every timeline point appears as exactly one X slice.
	var slices int
	streamTID := map[string]int{}
	threadNames := map[int]string{}
	var sEvents, fEvents []string
	counters := map[string]bool{}
	var processNamed bool
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur < 0 {
				t.Fatalf("negative duration on %q", e.Name)
			}
			if prev, ok := streamTID[e.Cat]; ok && prev != e.TID {
				t.Fatalf("stream %q on two TIDs: %d and %d", e.Cat, prev, e.TID)
			}
			streamTID[e.Cat] = e.TID
			if e.Args == nil {
				t.Fatalf("slice %q has no args", e.Name)
			}
			if _, ok := e.Args["mem_used_bytes"]; !ok {
				t.Fatalf("slice %q missing mem_used_bytes arg", e.Name)
			}
			if e.Cat == "d2h" || e.Cat == "h2d" {
				if _, ok := e.Args["bytes"]; !ok {
					t.Fatalf("copy slice %q missing bytes arg", e.Name)
				}
				if _, ok := e.Args["tensor"]; !ok {
					t.Fatalf("copy slice %q missing tensor arg", e.Name)
				}
			}
		case "M":
			switch e.Name {
			case "process_name":
				processNamed = true
			case "thread_name":
				threadNames[e.TID] = e.Args["name"].(string)
			}
		case "C":
			counters[e.Name] = true
		case "s":
			sEvents = append(sEvents, e.ID)
		case "f":
			if e.BP != "e" {
				t.Fatalf("flow finish without bp=e: %+v", e)
			}
			fEvents = append(fEvents, e.ID)
		}
	}
	if slices != len(r.Timeline) {
		t.Fatalf("%d slices for %d points", slices, len(r.Timeline))
	}
	if len(streamTID) != 3 {
		t.Fatalf("expected 3 stream lanes, got %v", streamTID)
	}
	if !processNamed {
		t.Fatal("missing process_name metadata")
	}
	for cat, tid := range streamTID {
		if threadNames[tid] != cat {
			t.Fatalf("lane %d (stream %q) named %q", tid, cat, threadNames[tid])
		}
	}
	for _, want := range []string{"device memory", "fragmentation", "pcie d2h B/s", "pcie h2d B/s"} {
		if !counters[want] {
			t.Fatalf("missing counter track %q (have %v)", want, counters)
		}
	}
	// Flow arrows: at least one swap pair, and ids match 1:1.
	if len(sEvents) == 0 {
		t.Fatal("no swap flow events in a swapping plan")
	}
	if len(sEvents) != len(fEvents) {
		t.Fatalf("%d flow starts vs %d finishes", len(sEvents), len(fEvents))
	}
	starts := map[string]int{}
	for _, id := range sEvents {
		starts[id]++
	}
	for _, id := range fEvents {
		starts[id]--
	}
	for id, n := range starts {
		if n != 0 {
			t.Fatalf("unpaired flow id %q", id)
		}
	}

	// Determinism: serializing the same timeline twice is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTraceSpans(&buf2, r.Timeline, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf2.Bytes()) {
		t.Fatal("trace serialization is not deterministic")
	}
}

// TestChromeTraceUnknownStreams pins the dynamic lane allocation:
// stream names outside compute/d2h/h2d get stable TIDs of their own
// instead of colliding on a zero TID.
func TestChromeTraceUnknownStreams(t *testing.T) {
	timeline := []TimelinePoint{
		{Name: "a", Start: 0, End: 1, Stream: ""},
		{Name: "b", Start: 0.5, End: 1.5, Stream: "nccl"},
		{Name: "c", Start: 1, End: 2, Stream: "d2h"},
		{Name: "d", Start: 2, End: 3, Stream: "nccl"},
		{Name: "e", Start: 2, End: 3, Stream: "host"},
	}
	tr, _ := decodeTrace(t, timeline)
	tidOf := map[string]int{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if prev, ok := tidOf[e.Cat]; ok && prev != e.TID {
			t.Fatalf("stream %q on two TIDs", e.Cat)
		}
		tidOf[e.Cat] = e.TID
	}
	if tidOf["nccl"] == 0 || tidOf["host"] == 0 {
		t.Fatalf("unknown streams not assigned TIDs: %v", tidOf)
	}
	if tidOf["nccl"] == tidOf["host"] || tidOf["nccl"] == tidOf["d2h"] {
		t.Fatalf("lane collision: %v", tidOf)
	}
	// First-appearance order fixes the allocation.
	if tidOf["nccl"] != firstDynamicTID || tidOf["host"] != firstDynamicTID+1 {
		t.Fatalf("dynamic TIDs not stable: %v", tidOf)
	}
	// The legend names the dynamic lanes too.
	named := map[int]string{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			named[e.TID] = e.Args["name"].(string)
		}
	}
	if named[tidOf["nccl"]] != "nccl" || named[tidOf["host"]] != "host" {
		t.Fatalf("dynamic lanes unnamed: %v", named)
	}
}
