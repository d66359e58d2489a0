package tsplit_test

import (
	"testing"

	"tsplit"
	"tsplit/internal/baselines"
)

// TestVerifyPlanAllModels is the acceptance gate for the plan-invariant
// verifier over the paper's evaluation models: every plan the TSPLIT
// planner produces — and every baseline plan that can train the
// configuration — must verify with zero violations.
func TestVerifyPlanAllModels(t *testing.T) {
	cases := []struct {
		model string
		batch int
		dev   tsplit.Device
	}{
		{"vgg16", 96, tsplit.GTX1080Ti},
		{"resnet50", 64, tsplit.TitanRTX},
		{"inceptionv4", 32, tsplit.TitanRTX},
		{"bert-large", 16, tsplit.TitanRTX},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			w, err := tsplit.Load(tc.model, tsplit.ModelConfig{BatchSize: tc.batch}, tc.dev)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := w.Plan(tsplit.PlanOptions{})
			if err != nil {
				t.Fatalf("planning: %v", err)
			}
			for _, v := range w.VerifyPlan(plan) {
				t.Errorf("tsplit plan: %s", v)
			}
			for _, policy := range baselines.Names {
				bp, err := w.PlanBaseline(policy)
				if err != nil {
					continue // policy does not apply to this model (e.g. no conv layers)
				}
				if _, err := w.Run(bp); err != nil {
					continue // OOM: the policy cannot train this configuration
				}
				for _, v := range w.VerifyPlan(bp) {
					t.Errorf("%s plan: %s", policy, v)
				}
			}
		})
	}
}

func TestVerifyPlanReportsTampering(t *testing.T) {
	w, err := tsplit.Load("vgg16", tsplit.ModelConfig{BatchSize: 96}, tsplit.GTX1080Ti)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.Plan(tsplit.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for k, tp := range plan.Tensors {
		if tp.Opt != 0 && tp.RestoreAt > tp.EvictAt && tp.MicroRestore <= 1 {
			tp.RestoreAt = tp.EvictAt
			plan.Tensors[k] = tp
			tampered = true
			break
		}
	}
	if !tampered {
		t.Skip("plan made no window decisions to tamper with")
	}
	if vs := w.VerifyPlan(plan); len(vs) == 0 {
		t.Fatal("tampered plan verified clean")
	}
}
