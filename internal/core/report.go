package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// PlanDecision is one committed iteration of the greedy planning loop
// (paper Algorithm 2 Step 3) with everything needed to answer "why did
// the planner pick this": the bottleneck it broke, how many candidates
// competed, the winning action and its ΔT/ΔM price, and the memory
// peak before and after the commit.
type PlanDecision struct {
	// Iter is the planning-loop iteration number (0-based).
	Iter int `json:"iter"`
	// Bottleneck is the schedule index of the first op over capacity;
	// BottleneckOp names it and OverBytes is how far over it was.
	Bottleneck   int    `json:"bottleneck"`
	BottleneckOp string `json:"bottleneck_op"`
	OverBytes    int64  `json:"over_bytes"`
	// PeakBefore/PeakAfter bracket the commit: the memory-curve peak
	// seen at this iteration and the peak after the decision applied.
	PeakBefore int64 `json:"peak_before_bytes"`
	PeakAfter  int64 `json:"peak_after_bytes"`
	// Candidates is the number of viable candidates scored (the
	// candidate pool size of Steps 1+2).
	Candidates int `json:"candidates"`
	// Kind is "swap", "recompute" or "split"; Tensor names the evicted
	// tensor (or the split input), Op the split operator.
	Kind   string `json:"kind"`
	Tensor string `json:"tensor,omitempty"`
	Op     string `json:"op,omitempty"`
	PNum   int    `json:"p_num,omitempty"`
	Dim    string `json:"dim,omitempty"`
	InOpt  string `json:"in_opt,omitempty"`
	// Ratio is the winning ΔT/ΔM greedy key (seconds per byte);
	// DeltaTSeconds and DeltaMBytes are its components.
	Ratio         float64 `json:"ratio"`
	DeltaTSeconds float64 `json:"delta_t_seconds"`
	DeltaMBytes   int64   `json:"delta_m_bytes"`
	// ChainsRederived counts the recompute chains whose transient
	// estimate was actually re-derived this iteration (dirty tracking);
	// ChainsTracked is how many recompute decisions the plan held — the
	// difference is the incremental path's saving over a full rebuild.
	ChainsRederived int `json:"chains_rederived"`
	ChainsTracked   int `json:"chains_tracked"`
}

// PlanReport is the structured introspection record of one Plan() run,
// assembled when Options.CollectReport is set and retrieved with
// Planner.Report().
type PlanReport struct {
	// Policy and Device identify the planning configuration.
	Policy string `json:"policy"`
	Device string `json:"device"`
	// CapacityBytes is the effective budget (after the fragmentation
	// reserve); InitialPeakBytes the unplanned curve peak;
	// FinalPeakBytes the planned curve peak.
	CapacityBytes    int64 `json:"capacity_bytes"`
	InitialPeakBytes int64 `json:"initial_peak_bytes"`
	FinalPeakBytes   int64 `json:"final_peak_bytes"`
	// SafetyMargin is the Options.SafetyMargin the plan was built
	// with — the budget fraction reserved for environmental pressure.
	SafetyMargin float64 `json:"safety_margin,omitempty"`
	// Degradations records the graceful-degradation ladder stages that
	// failed before this plan succeeded ("plan margin=0.10: injected
	// OOM", ...). Empty when the first plan ran clean.
	Degradations []string `json:"degradations,omitempty"`
	// PredictedTimeSeconds / ExtraTimeSeconds mirror the plan's cost
	// estimate: profiled iteration time plus the accumulated ΔT.
	PredictedTimeSeconds float64 `json:"predicted_time_seconds"`
	ExtraTimeSeconds     float64 `json:"extra_time_seconds"`
	// CandidatesScored totals the candidate evaluations across all
	// iterations; ChainsRederived/ChainsSkipped total the incremental
	// chain-refresh work and the rebuilds it avoided.
	CandidatesScored int64 `json:"candidates_scored"`
	ChainsRederived  int64 `json:"chains_rederived"`
	ChainsSkipped    int64 `json:"chains_skipped"`
	// CandidatesRescored counts the chain re-walks the invalidating
	// candidate index performed plus the split configurations the run
	// priced, whether derived or reused from a pooled planner's pristine
	// lists, so the count is the same on a fresh and a reused planner.
	CandidatesRescored int64 `json:"candidates_rescored,omitempty"`
	// MeanPCIeOccupancy is the time-weighted mean of the planner's
	// final per-op PCIe reservation array (Oc_u, paper Eq. 3).
	MeanPCIeOccupancy float64 `json:"mean_pcie_occupancy"`
	// EarlyOutSplits lists producers split by the early-swap-out
	// refinement pass (outside the greedy loop).
	EarlyOutSplits []string `json:"early_out_splits,omitempty"`
	// Decisions is the per-iteration commit log.
	Decisions []PlanDecision `json:"decisions"`
}

// WriteJSON serializes the report (indented) for --plan-report files
// and framework tooling.
func (r *PlanReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders a short human-readable digest: totals plus the first
// few decisions.
func (r *PlanReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan report: %s on %s — %d decisions, %.1f→%.1f MiB peak (budget %.1f MiB), +%.3fs predicted overhead\n",
		r.Policy, r.Device, len(r.Decisions),
		float64(r.InitialPeakBytes)/(1<<20), float64(r.FinalPeakBytes)/(1<<20),
		float64(r.CapacityBytes)/(1<<20), r.ExtraTimeSeconds)
	fmt.Fprintf(&b, "  %d candidates scored; chains re-derived %d, skipped %d; mean PCIe occupancy %.1f%%\n",
		r.CandidatesScored, r.ChainsRederived, r.ChainsSkipped, 100*r.MeanPCIeOccupancy)
	for i, d := range r.Decisions {
		if i >= 8 {
			fmt.Fprintf(&b, "  ... %d more decisions\n", len(r.Decisions)-i)
			break
		}
		what := d.Tensor
		if d.Kind == "split" {
			what = fmt.Sprintf("%s p=%d dim=%s in=%s", d.Op, d.PNum, d.Dim, d.InOpt)
		}
		fmt.Fprintf(&b, "  #%-3d @%-4d %-28s %-9s %-44s dM %7.1f MiB  dT %8.3f ms  of %d candidates\n",
			d.Iter, d.Bottleneck, d.BottleneckOp, d.Kind, what,
			float64(d.DeltaMBytes)/(1<<20), d.DeltaTSeconds*1e3, d.Candidates)
	}
	return b.String()
}

// decisionKind names a committed candidate for the report and the
// decisions_total metric label.
func decisionKind(c *candidate) string {
	if c.isSplit {
		return "split"
	}
	if c.opt == Recompute {
		return "recompute"
	}
	return "swap"
}
