package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tsplit/internal/graph"
)

// PlanJSON is the serialized form of a plan — the artifact a framework
// integration consumes to add the extra split/swap/regenerate
// operators to a PyTorch or TensorFlow program (paper Sec. VI-D:
// "the augmented dataflow graph of TSPLIT can be converted into the
// executable model"). It documents the wire schema and is the type to
// decode a plan into; AppendPlanJSON writes it without building it.
type PlanJSON struct {
	Policy   string           `json:"policy"`
	Device   string           `json:"device"`
	Tensors  []TensorPlanJSON `json:"tensors"`
	Splits   []OpSplitJSON    `json:"splits"`
	Offload  bool             `json:"offload_optimizer,omitempty"`
	Sharded  bool             `json:"shard_params,omitempty"`
	PeakGiB  float64          `json:"predicted_peak_gib,omitempty"`
	TimeSecs float64          `json:"predicted_time_seconds,omitempty"`
}

// TensorPlanJSON serializes one sTensor memory option.
type TensorPlanJSON struct {
	Tensor       string `json:"tensor"`
	Bytes        int64  `json:"bytes"`
	Opt          string `json:"opt"`
	EvictAt      int    `json:"evict_at"`
	PrefetchAt   int    `json:"prefetch_at,omitempty"`
	RestoreAt    int    `json:"restore_at"`
	MicroRestore int    `json:"micro_restore,omitempty"`
}

// OpSplitJSON serializes one operator split configuration.
type OpSplitJSON struct {
	Op       string   `json:"op"`
	PNum     int      `json:"p_num"`
	Dim      string   `json:"dim"`
	InOpt    string   `json:"in_opt"`
	EarlyOut bool     `json:"early_out,omitempty"`
	MicroIns []string `json:"micro_restored_inputs,omitempty"`
}

// ExportJSON writes the plan as indented JSON, deterministically
// ordered by schedule-independent ids: AppendPlanJSON's bytes indented
// by two spaces and ended by a newline, as a json.Encoder with
// SetIndent("", "  ") writes a PlanJSON.
func ExportJSON(w io.Writer, p *Plan) error {
	var buf bytes.Buffer
	if err := json.Indent(&buf, AppendPlanJSON(nil, p), "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// AppendPlanJSON appends the plan's compact JSON to dst, byte for byte
// what json.Marshal writes for the plan's PlanJSON: tensors ordered by
// tensor id and splits by op id, an empty list as null. The plan's
// PredictedTime must be finite, as encoding/json requires.
func AppendPlanJSON(dst []byte, p *Plan) []byte {
	dst = AppendJSONString(append(dst, `{"policy":`...), p.Name)
	dst = AppendJSONString(append(dst, `,"device":`...), p.Dev.Name)
	dst = append(dst, `,"tensors":`...)
	for i, tp := range p.Tensors {
		dst = AppendJSONString(append(append(dst, listSep(i)), `{"tensor":`...), tp.Tensor.Name)
		dst = strconv.AppendInt(append(dst, `,"bytes":`...), tp.Tensor.Bytes(), 10)
		dst = AppendJSONString(append(dst, `,"opt":`...), tp.Opt.String())
		dst = strconv.AppendInt(append(dst, `,"evict_at":`...), int64(tp.EvictAt), 10)
		if tp.PrefetchAt != 0 {
			dst = strconv.AppendInt(append(dst, `,"prefetch_at":`...), int64(tp.PrefetchAt), 10)
		}
		dst = strconv.AppendInt(append(dst, `,"restore_at":`...), int64(tp.RestoreAt), 10)
		if tp.MicroRestore != 0 {
			dst = strconv.AppendInt(append(dst, `,"micro_restore":`...), int64(tp.MicroRestore), 10)
		}
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(p.Tensors))
	dst = append(dst, `,"splits":`...)
	for i, sp := range p.Splits {
		dst = AppendJSONString(append(append(dst, listSep(i)), `{"op":`...), sp.Op.Name)
		dst = strconv.AppendInt(append(dst, `,"p_num":`...), int64(sp.PNum), 10)
		dst = AppendJSONString(append(dst, `,"dim":`...), sp.Dim.String())
		dst = AppendJSONString(append(dst, `,"in_opt":`...), sp.InOpt.String())
		if sp.EarlyOut {
			dst = append(dst, `,"early_out":true`...)
		}
		if len(sp.MicroIns) > 0 {
			dst = append(dst, `,"micro_restored_inputs":`...)
			for j, t := range sp.MicroIns {
				dst = AppendJSONString(append(dst, listSep(j)), t.Name)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = closeList(dst, len(p.Splits))
	if p.OffloadOptimizer {
		dst = append(dst, `,"offload_optimizer":true`...)
	}
	if p.ShardParams {
		dst = append(dst, `,"shard_params":true`...)
	}
	// omitempty: the GiB figure is zero exactly when the byte count is,
	// and a time of +0 or −0 is empty (every bit but the sign clear).
	if p.PredictedPeak != 0 {
		dst = AppendJSONFloat(append(dst, `,"predicted_peak_gib":`...), float64(p.PredictedPeak)/(1<<30))
	}
	if math.Float64bits(p.PredictedTime)<<1 != 0 {
		dst = AppendJSONFloat(append(dst, `,"predicted_time_seconds":`...), p.PredictedTime)
	}
	return append(dst, '}')
}

// listSep is the byte before list element i: the list's opening
// bracket before the first, a comma before every later one.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// closeList ends a list of n elements; encoding/json writes an empty
// (nil) one as null.
func closeList(dst []byte, n int) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	return append(dst, ']')
}

// AppendJSONString appends s as encoding/json quotes it. Printable
// ASCII other than the characters it escapes (", \, and the HTML-safe
// <, >, &) is copied through; any other byte hands the whole string
// to encoding/json, which also replaces invalid UTF-8.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendJSONFloat appends a finite f as encoding/json writes a
// float64: shortest 'f' form, or 'e' form with an unpadded exponent
// when |f| is below 1e-6 or at least 1e21.
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); (abs > 0 && abs < 1e-6) || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// DOT renders the augmented graph in Graphviz format for inspection of
// the Fig. 10 rewrite: memory operators are colored (swap-out red,
// swap-in green, split/merge blue, recompute orange), control edges
// are dashed.
func (a *Augmented) DOT(w io.Writer) error {
	// Render into a buffer first: strings.Builder writes cannot fail,
	// so the single flush below is the only error site.
	var b strings.Builder
	fmt.Fprintln(&b, "digraph tsplit {\n  rankdir=LR;\n  node [shape=box, fontsize=9];")
	color := func(k graph.OpKind) string {
		switch k {
		case graph.SwapOut:
			return "indianred1"
		case graph.SwapIn:
			return "palegreen"
		case graph.SplitOp, graph.MergeOp:
			return "lightskyblue"
		case graph.Recompute:
			return "orange"
		default:
			return "white"
		}
	}
	for _, op := range a.G.Ops {
		fmt.Fprintf(&b, "  op%d [label=%q, style=filled, fillcolor=%q];\n", op.ID, op.Name, color(op.Kind))
	}
	for _, op := range a.G.Ops {
		seen := map[int]bool{}
		for _, in := range op.Inputs {
			if p := in.Producer; p != nil && !seen[p.ID] {
				seen[p.ID] = true
				fmt.Fprintf(&b, "  op%d -> op%d [label=%q, fontsize=7];\n", p.ID, op.ID, in.Name)
			}
		}
		for _, dep := range op.ControlDeps {
			fmt.Fprintf(&b, "  op%d -> op%d [style=dashed, color=gray];\n", dep.ID, op.ID)
		}
	}
	fmt.Fprintln(&b, "}")
	_, err := io.WriteString(w, b.String())
	return err
}
