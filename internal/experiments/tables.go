package experiments

import (
	"fmt"
	"strings"

	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
)

// EvalModels are the paper's six benchmark models (Sec. VI-A).
var EvalModels = []string{"vgg16", "vgg19", "resnet50", "resnet101", "inceptionv4", "transformer"}

// ScaleTable is the result of a max-scale sweep (paper Tables IV-VII):
// Cells[model][policy] = max scale, 0 = cannot train at scale 1,
// -1 = policy not applicable (the paper's ×).
type ScaleTable struct {
	Title    string
	Models   []string
	Policies []string
	Cells    map[string]map[string]int
}

// Get returns the cell for (model, policy).
func (t *ScaleTable) Get(model, policy string) int { return t.Cells[model][policy] }

// Render draws the table in the paper's layout.
func (t *ScaleTable) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, t.Title)
	fmt.Fprintf(&b, "%-12s", "Model")
	for _, p := range t.Policies {
		fmt.Fprintf(&b, "%18s", p)
	}
	fmt.Fprintln(&b)
	for _, m := range t.Models {
		fmt.Fprintf(&b, "%-12s", m)
		for _, p := range t.Policies {
			v := t.Cells[m][p]
			if v < 0 {
				fmt.Fprintf(&b, "%18s", "x")
			} else {
				fmt.Fprintf(&b, "%18d", v)
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// scalePolicies is the paper's Table IV/V policy set.
var scalePolicies = []string{"base", "vdnn-conv", "vdnn-all", "checkpoints", "superneurons", "tsplit"}

// offloadPolicies is the Table VI/VII policy set: the PyTorch
// comparison composes TSPLIT's activation planning with CPU-side
// optimizer updates (Sec. VI-D).
var offloadPolicies = []string{"zero-offload", "fairscale-offload", "tsplit-offload"}

// applicable reports whether a policy can support a model at all
// (vDNN-conv and SuperNeurons need convolutions — the paper's ×).
func applicable(model, policy string) bool {
	if model != "transformer" && model != "bert-large" {
		return true
	}
	return policy != "vdnn-conv" && policy != "superneurons"
}

// scaleTable lays a joint search's scales[model][policy] out as a
// table over EvalModels, marking the inapplicable cells.
func scaleTable(title string, policies []string, scales [][]int) *ScaleTable {
	t := &ScaleTable{Title: title, Models: EvalModels, Policies: policies, Cells: map[string]map[string]int{}}
	for m, model := range EvalModels {
		t.Cells[model] = map[string]int{}
		for p, policy := range policies {
			t.Cells[model][policy] = scales[m][p]
			if !applicable(model, policy) {
				t.Cells[model][policy] = -1
			}
		}
	}
	return t
}

// Table4MaxSampleScale reproduces paper Table IV: the largest batch
// size each policy trains per model on the Titan RTX. hi bounds the
// search (0 = 4096; tests pass smaller bounds).
func Table4MaxSampleScale(dev device.Device, hi int) *ScaleTable {
	return scaleTable(
		fmt.Sprintf("Table IV: max sample scale on %s", dev.Name), scalePolicies,
		sampleScales(dev, EvalModels, scalePolicies, models.Config{}, hi))
}

// Table5MaxParamScale reproduces paper Table V: the largest
// parameter-scale multiplier (channels / hidden ×k) trainable at
// batch 16.
func Table5MaxParamScale(dev device.Device, hi int) *ScaleTable {
	return scaleTable(
		fmt.Sprintf("Table V: max parameter scale (batch 16) on %s", dev.Name), scalePolicies,
		paramScales(EvalModels, scalePolicies, dev, models.Config{BatchSize: 16}, hi))
}

// Table6MaxSampleVsOffload reproduces paper Table VI: sample scale
// against the PyTorch offload baselines (Adam optimizer states give
// ZeRO-Offload something to offload, as in the paper's setting).
func Table6MaxSampleVsOffload(dev device.Device, hi int) *ScaleTable {
	return scaleTable(
		fmt.Sprintf("Table VI: max sample scale vs offload baselines on %s", dev.Name), offloadPolicies,
		sampleScales(dev, EvalModels, offloadPolicies, models.Config{Optimizer: graph.Adam}, hi))
}

// Table7MaxParamVsOffload reproduces paper Table VII: parameter scale
// against the offload baselines.
func Table7MaxParamVsOffload(dev device.Device, hi int) *ScaleTable {
	return scaleTable(
		fmt.Sprintf("Table VII: max parameter scale (batch 16) vs offload baselines on %s", dev.Name), offloadPolicies,
		paramScales(EvalModels, offloadPolicies, dev, models.Config{BatchSize: 16, Optimizer: graph.Adam}, hi))
}

// SizeBucket is one row of the paper's Table II tensor-size histogram.
type SizeBucket struct {
	Label   string
	Lo, Hi  int64 // bytes, Hi 0 = unbounded
	Count   int
	Percent float64
}

// Table2TensorSizes reproduces paper Table II: the distribution of
// tensor sizes in BERT-Large, demonstrating how many >500 MB tensors a
// large model carries.
func Table2TensorSizes(batch, seqLen int) ([]SizeBucket, error) {
	g, err := buildGraph("bert-large", models.Config{BatchSize: batch, SeqLen: seqLen})
	if err != nil {
		return nil, err
	}
	const MB = 1 << 20
	buckets := []SizeBucket{
		{Label: "< 1MB", Lo: 0, Hi: 1 * MB},
		{Label: "1 ~ 10MB", Lo: 1 * MB, Hi: 10 * MB},
		{Label: "10 ~ 50MB", Lo: 10 * MB, Hi: 50 * MB},
		{Label: "50 ~ 100MB", Lo: 50 * MB, Hi: 100 * MB},
		{Label: "100 ~ 500MB", Lo: 100 * MB, Hi: 500 * MB},
		{Label: "> 500MB", Lo: 500 * MB, Hi: 0},
	}
	total := 0
	for _, t := range g.Tensors {
		total++
		b := t.Bytes()
		for i := range buckets {
			if b >= buckets[i].Lo && (buckets[i].Hi == 0 || b < buckets[i].Hi) {
				buckets[i].Count++
				break
			}
		}
	}
	for i := range buckets {
		if total > 0 {
			buckets[i].Percent = 100 * float64(buckets[i].Count) / float64(total)
		}
	}
	return buckets, nil
}

// RenderTable2 draws the Table II histogram.
func RenderTable2(buckets []SizeBucket) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II: tensor size distribution in BERT-Large")
	for _, bk := range buckets {
		fmt.Fprintf(&b, "%-12s %6.2f%% (%d tensors)\n", bk.Label, bk.Percent, bk.Count)
	}
	return b.String()
}
