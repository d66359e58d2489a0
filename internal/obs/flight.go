package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured flight-recorder entry. Seq is a global,
// gap-free sequence number assigned at Record time: when the ring
// overwrites old entries the surviving events keep their original
// numbers, so a dump states exactly how many events were dropped and
// where the retained window begins.
type Event struct {
	Seq        uint64  `json:"seq"`
	TimeMicros int64   `json:"t_us"` // offset from the recorder's creation
	Kind       string  `json:"kind"`
	Msg        string  `json:"msg,omitempty"`
	Attrs      []Label `json:"attrs,omitempty"`
}

// Flight is a fixed-size ring buffer of the last N events — the
// black-box recorder consulted after an escalation or verification
// failure. Recording is concurrency-safe and nil-safe (a nil *Flight
// drops everything at the cost of one nil check), so the same pointer
// threads through planner, simulator, and ladder unconditionally.
//
// Nil-safety contract: every exported method must guard the receiver
// before dereferencing it; TestNilReceiverMethods calls each one on a
// nil receiver.
type Flight struct {
	mu    sync.Mutex
	clock Clock
	t0    time.Time
	buf   []Event // lint:guardedby mu — ring storage; entry for seq s lives at s % cap
	seq   uint64  // lint:guardedby mu — next sequence number == total events ever recorded
}

// DefaultFlightSize is the ring capacity used when callers pass a
// non-positive size: enough to hold the full decision stream of the
// largest zoo model plus the fault/escalation tail around a failure.
const DefaultFlightSize = 256

// NewFlight creates a recorder holding the last n events (n <= 0
// means DefaultFlightSize), timestamped by clock (Wall when nil).
func NewFlight(n int, clock Clock) *Flight {
	if n <= 0 {
		n = DefaultFlightSize
	}
	if clock == nil {
		clock = Wall
	}
	return &Flight{clock: clock, t0: clock(), buf: make([]Event, 0, n)}
}

// Record appends one event, overwriting the oldest when full.
// Nil-safe.
func (f *Flight) Record(kind, msg string, attrs ...Label) {
	if f == nil {
		return
	}
	var as []Label
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	f.mu.Lock()
	ev := Event{Seq: f.seq, TimeMicros: f.clock().Sub(f.t0).Microseconds(), Kind: kind, Msg: msg, Attrs: as}
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.seq%uint64(cap(f.buf))] = ev
	}
	f.seq++
	f.mu.Unlock()
}

// Len reports how many events the ring currently holds. Nil-safe.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Dropped reports how many events have been overwritten. Nil-safe.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq - uint64(len(f.buf))
}

// Events snapshots the ring in sequence order (oldest first).
// Nil-safe: a nil recorder yields nil.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		out = append(out, f.buf...)
		return out
	}
	n := uint64(cap(f.buf))
	for i := uint64(0); i < n; i++ {
		out = append(out, f.buf[(f.seq+i)%n])
	}
	return out
}

// Dump is a self-contained postmortem snapshot: the flight-recorder
// window, a metrics snapshot, and the span forest, plus what pulled
// the trigger. It is the unit tsplit-doctor consumes.
type Dump struct {
	Reason        string      `json:"reason"`
	TriggerSeq    uint64      `json:"trigger_seq"` // events recorded when triggered
	DroppedEvents uint64      `json:"dropped_events"`
	Events        []Event     `json:"events,omitempty"`
	Metrics       []Metric    `json:"metrics,omitempty"`
	Spans         []*SpanNode `json:"spans,omitempty"`
}

// Dumper snapshots ring + metrics + spans into a Dump when triggered.
// Any of the three sources may be nil (that section is simply empty);
// a nil *Dumper ignores triggers entirely. Sink receives each dump;
// sink errors are retained (Err) rather than propagated, because
// triggers fire from failure paths that must not gain new failure
// modes of their own.
//
// Nil-safety contract: a nil *Dumper ignores triggers; every exported
// method guards the receiver first (TestNilReceiverMethods calls each
// one on a nil receiver).
type Dumper struct {
	Flight   *Flight
	Registry *Registry
	Tracer   *Tracer
	Sink     func(*Dump) error

	mu       sync.Mutex
	triggers []string // lint:guardedby mu
	err      error    // lint:guardedby mu
}

// Trigger snapshots the current state under the given reason and
// hands it to the sink. Nil-safe.
func (d *Dumper) Trigger(reason string) {
	if d == nil {
		return
	}
	dump := &Dump{
		Reason:        reason,
		DroppedEvents: d.Flight.Dropped(),
		Events:        d.Flight.Events(),
		Spans:         d.Tracer.Tree(),
	}
	dump.TriggerSeq = d.Flight.Dropped() + uint64(len(dump.Events))
	if d.Registry != nil {
		dump.Metrics = d.Registry.Snapshot()
	}
	d.mu.Lock()
	d.triggers = append(d.triggers, reason)
	if d.Sink != nil {
		if err := d.Sink(dump); err != nil && d.err == nil {
			d.err = err
		}
	}
	d.mu.Unlock()
}

// Triggers returns the reasons recorded so far, in order. Nil-safe.
func (d *Dumper) Triggers() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.triggers...)
}

// Err returns the first sink error, if any. Nil-safe.
func (d *Dumper) Err() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// WriteDump writes a dump as indented JSON (byte-deterministic for a
// given dump: all slices are already in a defined order).
func WriteDump(w io.Writer, d *Dump) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDump parses a dump written by WriteDump.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: parse dump: %w", err)
	}
	return &d, nil
}

// ReadDumpFile parses a dump file from disk.
func ReadDumpFile(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dump
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("obs: parse dump %s: %w", path, err)
	}
	return &d, nil
}

// WriteFile hands fn the file at path, created or truncated, or
// stdout when path is "-". It returns the Close error when fn
// succeeds: exports flush at Close, so a dropped Close error is a
// silently truncated file.
func WriteFile(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// FileSink returns a sink that writes each dump to path through
// WriteFile, overwriting: the file always holds the most recent
// snapshot (the one closest to the failure the postmortem cares
// about).
func FileSink(path string) func(*Dump) error {
	return func(d *Dump) error {
		return WriteFile(path, func(w io.Writer) error { return WriteDump(w, d) })
	}
}
