package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file is the analysis half of the flight-recorder subsystem:
// it turns a Dump (or a bare metrics/trace export) into the diagnosis
// tsplit-doctor prints — phase latency percentiles from the span
// tree, stall attribution from the metrics snapshot, the event tail
// from the ring, and regressions against an optional baseline dump.

// PhaseStat aggregates every span sharing one name: the doctor's
// phase-latency breakdown. Durations are integer microseconds
// (nearest-rank percentiles over the ended spans only).
type PhaseStat struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	Open        int     `json:"open,omitempty"` // spans never ended
	TotalMicros int64   `json:"total_us"`
	P50Micros   int64   `json:"p50_us"`
	P95Micros   int64   `json:"p95_us"`
	P99Micros   int64   `json:"p99_us"`
	MaxMicros   int64   `json:"max_us"`
	Pct         float64 `json:"pct"` // share of summed root-span time
}

// StallStat attributes simulated stall time to one cause.
type StallStat struct {
	Cause  string  `json:"cause"`
	Micros int64   `json:"us"`
	Pct    float64 `json:"pct"`
}

// EventCount tallies flight-recorder events of one kind.
type EventCount struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// Regression is one metric or phase that moved against the baseline.
type Regression struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Pct      float64 `json:"pct"` // signed relative change, percent
}

// Diagnosis is the full doctor report.
type Diagnosis struct {
	Reason        string       `json:"reason,omitempty"`
	Phases        []PhaseStat  `json:"phases,omitempty"`
	Stalls        []StallStat  `json:"stalls,omitempty"`
	EventCounts   []EventCount `json:"event_counts,omitempty"`
	LastEvents    []Event      `json:"last_events,omitempty"`
	DroppedEvents uint64       `json:"dropped_events,omitempty"`
	Regressions   []Regression `json:"regressions,omitempty"`
}

// maxLastEvents bounds the event tail echoed into the diagnosis: the
// window immediately before the trigger is the part a postmortem
// reads first.
const maxLastEvents = 12

// maxRegressions bounds the "top regressions" section.
const maxRegressions = 10

// Diagnose analyzes a dump. baseline is optional; when present, the
// regression section compares scalar metrics and phase totals against
// it. Both dumps may be partial (metrics-only, spans-only) — absent
// sections simply yield absent report sections.
func Diagnose(d *Dump, baseline *Dump) *Diagnosis {
	diag := &Diagnosis{
		Reason:        d.Reason,
		Phases:        phaseStats(d.Spans),
		Stalls:        stallStats(d.Metrics),
		DroppedEvents: d.DroppedEvents,
	}
	diag.EventCounts, diag.LastEvents = eventStats(d.Events)
	if baseline != nil {
		diag.Regressions = regressions(baseline, d)
	}
	return diag
}

// flattenSpans walks a span forest depth-first, appending every node.
func flattenSpans(nodes []*SpanNode, out []*SpanNode) []*SpanNode {
	for _, n := range nodes {
		out = append(out, n)
		out = flattenSpans(n.Children, out)
	}
	return out
}

// phaseStats groups the flattened span forest by name.
func phaseStats(spans []*SpanNode) []PhaseStat {
	if len(spans) == 0 {
		return nil
	}
	flat := flattenSpans(spans, nil)
	durs := make(map[string][]int64)
	open := make(map[string]int)
	for _, n := range flat {
		if n.DurMicros < 0 {
			open[n.Name]++
			if _, ok := durs[n.Name]; !ok {
				durs[n.Name] = nil
			}
			continue
		}
		durs[n.Name] = append(durs[n.Name], n.DurMicros)
	}
	var rootTotal int64
	for _, n := range spans {
		if n.DurMicros > 0 {
			rootTotal += n.DurMicros
		}
	}
	names := make([]string, 0, len(durs))
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PhaseStat, 0, len(names))
	for _, name := range names {
		ds := durs[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := PhaseStat{Name: name, Count: len(ds) + open[name], Open: open[name]}
		for _, d := range ds {
			st.TotalMicros += d
		}
		if len(ds) > 0 {
			st.P50Micros = rank(ds, 50)
			st.P95Micros = rank(ds, 95)
			st.P99Micros = rank(ds, 99)
			st.MaxMicros = ds[len(ds)-1]
		}
		if rootTotal > 0 {
			st.Pct = 100 * float64(st.TotalMicros) / float64(rootTotal)
		}
		out = append(out, st)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TotalMicros != out[j].TotalMicros {
			return out[i].TotalMicros > out[j].TotalMicros
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// rank is the nearest-rank percentile of a sorted slice.
func rank(sorted []int64, p int) int64 {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// metricValue extracts the comparable scalar of a metric: exact
// counter, gauge value, or histogram sum.
func metricValue(m Metric) float64 {
	if m.Kind == "counter" {
		return float64(m.Int)
	}
	return m.Value
}

func stallStats(ms []Metric) []StallStat {
	var out []StallStat
	var total int64
	for _, m := range ms {
		if m.Name != "tsplit_sim_stall_microseconds_total" || m.Kind != "counter" {
			continue
		}
		cause := ""
		for _, l := range m.Labels {
			if l.Key == "cause" {
				cause = l.Value
			}
		}
		out = append(out, StallStat{Cause: cause, Micros: m.Int})
		total += m.Int
	}
	for i := range out {
		if total > 0 {
			out[i].Pct = 100 * float64(out[i].Micros) / float64(total)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Micros != out[j].Micros {
			return out[i].Micros > out[j].Micros
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

func eventStats(events []Event) ([]EventCount, []Event) {
	if len(events) == 0 {
		return nil, nil
	}
	counts := make(map[string]int)
	for _, ev := range events {
		counts[ev.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]EventCount, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, EventCount{Kind: k, Count: counts[k]})
	}
	tail := events
	if len(tail) > maxLastEvents {
		tail = tail[len(tail)-maxLastEvents:]
	}
	return out, append([]Event(nil), tail...)
}

// regressions compares scalar metrics and phase totals of cur against
// base and returns the largest relative increases first. Only
// increases are reported — for every compared quantity (latency
// sums, stall time, failure counters) up is the bad direction; new
// metrics with no baseline value are skipped, not inferred.
func regressions(base, cur *Dump) []Regression {
	baseVals := scalarSeries(base)
	curVals := scalarSeries(cur)
	keys := make([]string, 0, len(curVals))
	for k := range curVals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Regression
	for _, k := range keys {
		bv, ok := baseVals[k]
		if !ok || bv <= 0 {
			continue
		}
		cv := curVals[k]
		if cv <= bv {
			continue
		}
		out = append(out, Regression{Name: k, Baseline: bv, Current: cv, Pct: 100 * (cv - bv) / bv})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > maxRegressions {
		out = out[:maxRegressions]
	}
	return out
}

// scalarSeries flattens a dump into comparable named scalars:
// "metric{k=v,...}" for each series and "phase:<name> total_us" for
// each span phase.
func scalarSeries(d *Dump) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range d.Metrics {
		key := m.Name
		if len(m.Labels) > 0 {
			parts := make([]string, len(m.Labels))
			for i, l := range m.Labels {
				parts[i] = l.Key + "=" + l.Value
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		out[key] = metricValue(m)
	}
	for _, ph := range phaseStats(d.Spans) {
		out["phase:"+ph.Name+" total_us"] = float64(ph.TotalMicros)
	}
	return out
}

// WriteJSON writes the diagnosis as indented JSON (the -json mode CI
// consumes).
func (d *Diagnosis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Render formats the diagnosis for humans.
func (d *Diagnosis) Render() string {
	var b strings.Builder
	if d.Reason != "" {
		fmt.Fprintf(&b, "dump reason: %s\n\n", d.Reason)
	}
	if len(d.Phases) > 0 {
		b.WriteString("Phase latency (per span name; % of root-span time)\n")
		fmt.Fprintf(&b, "  %-24s %7s %10s %9s %9s %9s %9s %6s\n",
			"phase", "count", "total", "p50", "p95", "p99", "max", "%")
		for _, p := range d.Phases {
			note := ""
			if p.Open > 0 {
				note = fmt.Sprintf("  (%d open)", p.Open)
			}
			fmt.Fprintf(&b, "  %-24s %7d %10s %9s %9s %9s %9s %6.1f%s\n",
				p.Name, p.Count, us(p.TotalMicros), us(p.P50Micros), us(p.P95Micros),
				us(p.P99Micros), us(p.MaxMicros), p.Pct, note)
		}
		b.WriteByte('\n')
	}
	if len(d.Stalls) > 0 {
		b.WriteString("Stall attribution (simulated)\n")
		for _, s := range d.Stalls {
			fmt.Fprintf(&b, "  %-16s %10s %6.1f%%\n", s.Cause, us(s.Micros), s.Pct)
		}
		b.WriteByte('\n')
	}
	if len(d.EventCounts) > 0 {
		b.WriteString("Flight recorder\n")
		for _, ec := range d.EventCounts {
			fmt.Fprintf(&b, "  %-24s %6d\n", ec.Kind, ec.Count)
		}
		if d.DroppedEvents > 0 {
			fmt.Fprintf(&b, "  (%d older events overwritten)\n", d.DroppedEvents)
		}
		if len(d.LastEvents) > 0 {
			b.WriteString("  last events:\n")
			for _, ev := range d.LastEvents {
				fmt.Fprintf(&b, "    #%-5d %9s  %-20s %s", ev.Seq, us(ev.TimeMicros), ev.Kind, ev.Msg)
				for _, a := range ev.Attrs {
					fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
				}
				b.WriteByte('\n')
			}
		}
		b.WriteByte('\n')
	}
	if len(d.Regressions) > 0 {
		b.WriteString("Top regressions vs baseline\n")
		for _, r := range d.Regressions {
			fmt.Fprintf(&b, "  %-48s %14.6g -> %14.6g  +%.1f%%\n", r.Name, r.Baseline, r.Current, r.Pct)
		}
		b.WriteByte('\n')
	}
	if b.Len() == 0 {
		b.WriteString("nothing to diagnose: dump has no spans, metrics, or events\n")
	}
	return b.String()
}

// us renders integer microseconds compactly.
func us(v int64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fs", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fms", float64(v)/1e3)
	default:
		return strconv.FormatInt(v, 10) + "µs"
	}
}

// ParsePrometheus parses the subset of the Prometheus text exposition
// WritePrometheus emits back into a metrics snapshot, so the doctor
// can analyze a -metrics file without a full dump. Histograms are
// reassembled from their cumulative _bucket/_sum/_count series.
func ParsePrometheus(r io.Reader) ([]Metric, error) {
	kinds := make(map[string]string)
	var order []string
	byKey := make(map[string]*Metric)

	add := func(key string, m Metric) *Metric {
		if got, ok := byKey[key]; ok {
			return got
		}
		cp := m
		byKey[key] = &cp
		order = append(order, key)
		return byKey[key]
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				kinds[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %d: %w", lineNo, err)
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name && kinds[trimmed] == "histogram" {
				base, suffix = trimmed, s
				break
			}
		}
		if suffix != "" {
			var le string
			kept := labels[:0]
			for _, l := range labels {
				if l.Key == "le" {
					le = l.Value
					continue
				}
				kept = append(kept, l)
			}
			labels = kept
			key := "h\x00" + base + "\x00" + labelKey(labels)
			m := add(key, Metric{Name: base, Kind: "histogram", Labels: append([]Label(nil), labels...),
				Histogram: &HistogramSnapshot{}})
			h := m.Histogram
			switch suffix {
			case "_bucket":
				if le == "+Inf" {
					h.Counts = append(h.Counts, int64(value))
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return nil, fmt.Errorf("obs: metrics line %d: bad le %q", lineNo, le)
					}
					h.Bounds = append(h.Bounds, bound)
					h.Counts = append(h.Counts, int64(value))
				}
			case "_sum":
				h.Sum = value
				m.Value = value
			case "_count":
				h.Count = int64(value)
			}
			continue
		}
		kind := kinds[name]
		if kind == "" {
			kind = "gauge" // untyped series read back as gauges
		}
		key := "s\x00" + name + "\x00" + labelKey(labels)
		m := add(key, Metric{Name: name, Kind: kind, Labels: append([]Label(nil), labels...), Value: value})
		if kind == "counter" {
			m.Int = int64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Metric, 0, len(order))
	for _, key := range order {
		m := byKey[key]
		if m.Kind == "histogram" {
			// _bucket series are cumulative; the snapshot stores
			// per-bucket counts.
			h := m.Histogram
			for i := len(h.Counts) - 1; i > 0; i-- {
				h.Counts[i] -= h.Counts[i-1]
			}
		}
		out = append(out, *m)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out, nil
}

func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x01" + l.Value
	}
	return strings.Join(parts, "\x00")
}

// parsePromLine splits `name{k="v",...} value` (labels optional).
func parsePromLine(line string) (string, []Label, float64, error) {
	name := line
	var labels []Label
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		var err error
		labels, err = parsePromLabels(line[i+1 : j])
		if err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("expected `name value`, got %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := parsePromFloat(rest)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q in %q", rest, line)
	}
	return name, labels, v, nil
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// inf avoids importing math just for the two infinities.
func inf(sign int) float64 {
	v, _ := strconv.ParseFloat("Inf", 64)
	if sign < 0 {
		return -v
	}
	return v
}

func parsePromLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label segment %q", s)
		}
		key := s[:eq]
		i := eq + 2
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out = append(out, Label{Key: key, Value: val.String()})
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// ParsePrometheusFile reads a -metrics exposition file into a
// metrics-only Dump.
func ParsePrometheusFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ms, err := ParsePrometheus(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Dump{Reason: "metrics:" + path, Metrics: ms}, nil
}

// ParseChromeTraceFile reads a Chrome/Perfetto trace (as written by
// the sim exporter or any trace_event producer) into a spans-only
// Dump: every "X" complete slice becomes a flat span named after the
// slice, so the phase breakdown works on plain -trace output too.
func ParseChromeTraceFile(path string) (*Dump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return nil, fmt.Errorf("obs: parse trace %s: %w", path, err)
	}
	var spans []*SpanNode
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans = append(spans, &SpanNode{Name: ev.Name, StartMicros: int64(ev.TS), DurMicros: int64(ev.Dur)})
	}
	return &Dump{Reason: "trace:" + path, Spans: spans}, nil
}
