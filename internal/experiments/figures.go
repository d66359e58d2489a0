package experiments

import (
	"fmt"
	"strings"

	"tsplit/internal/core"
	"tsplit/internal/costmodel"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
	"tsplit/internal/prep"
	"tsplit/internal/sim"
)

// ThroughputSeries is one line of a throughput figure: samples/second
// per batch size for one policy (0 = infeasible at that batch).
type ThroughputSeries struct {
	Policy string
	Batch  []int
	Thr    []float64
}

// ThroughputFigure is the Fig. 12 / 13 / 15 data: throughput per
// (model, policy, batch).
type ThroughputFigure struct {
	Title  string
	Dev    device.Device
	Series map[string][]ThroughputSeries // by model
}

// fig12Batches matches the paper's per-model sample-size sweeps.
var fig12Batches = map[string][]int{
	"vgg16":       {64, 128, 256, 384},
	"resnet50":    {64, 128, 256, 512},
	"inceptionv4": {64, 128, 256, 512},
	"transformer": {32, 64, 128, 256},
}

// fig12Models are the four workloads of Figs. 12/13/15.
var fig12Models = []string{"vgg16", "resnet50", "inceptionv4", "transformer"}

// throughputFigure sweeps batch sizes for the given policies. One
// (model, batch) workload is rebatched from the model's template and
// run under every applicable policy, so the workloads run concurrently
// and their throughputs are stitched into per-policy series in legend
// order. A cell keeps only throughputs, so it builds its plans in a
// borrowed RunStore.
func throughputFigure(title string, dev device.Device, policies []string, cfg models.Config) *ThroughputFigure {
	f := &ThroughputFigure{Title: title, Dev: dev, Series: map[string][]ThroughputSeries{}}
	type cell struct {
		model string
		bi    int // index into fig12Batches[model]
	}
	var cells []cell
	for _, m := range fig12Models {
		for bi := range fig12Batches[m] {
			cells = append(cells, cell{m, bi})
		}
		for _, pol := range policies {
			batches := fig12Batches[m]
			f.Series[m] = append(f.Series[m], ThroughputSeries{Policy: pol, Batch: batches, Thr: make([]float64, len(batches))})
		}
	}
	forEach(len(cells), func(k int) {
		m, bi := cells[k].model, cells[k].bi
		c := cfg
		c.BatchSize = fig12Batches[m][bi]
		p, err := templates.Prepare(m, c, dev, Obs)
		if err != nil {
			return
		}
		st := runStores.Get().(*prep.RunStore)
		for pi, pol := range policies {
			if applicable(m, pol) {
				f.Series[m][pi].Thr[bi] = runPolicy(p, pol, st).Throughput(c.BatchSize)
			}
		}
		runStores.Put(st)
		p.Release()
	})
	return f
}

// fig12Policies matches the paper's Fig. 12 legend.
var fig12Policies = []string{"vdnn-conv", "vdnn-all", "checkpoints", "superneurons", "tsplit"}

// Fig12ThroughputRTX reproduces paper Fig. 12: throughput vs sample
// size on the Titan RTX. The paper plots speedup over vDNN; Render
// normalizes accordingly.
func Fig12ThroughputRTX() *ThroughputFigure {
	return throughputFigure("Fig. 12: throughput vs sample size (TITAN RTX)", device.TitanRTX, fig12Policies, models.Config{})
}

// Fig13Throughput1080Ti reproduces paper Fig. 13 on the GTX 1080Ti
// (~70% of the RTX's FP32 throughput, 11 GB).
func Fig13Throughput1080Ti() *ThroughputFigure {
	return throughputFigure("Fig. 13: throughput vs sample size (GTX 1080Ti)", device.GTX1080Ti, fig12Policies, models.Config{})
}

// Fig15ThroughputVsOffload reproduces paper Fig. 15: throughput
// against the PyTorch offload baselines (Adam optimizer).
func Fig15ThroughputVsOffload() *ThroughputFigure {
	return throughputFigure("Fig. 15: throughput vs offload baselines (TITAN RTX)",
		device.TitanRTX, []string{"zero-offload", "fairscale-offload", "tsplit-offload"},
		models.Config{Optimizer: graph.Adam})
}

// Render draws the figure as per-model tables of throughput and
// speedup over the first policy that is feasible at each batch.
func (f *ThroughputFigure) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	for _, m := range fig12Models {
		series := f.Series[m]
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(&b, "-- %s (samples/s)\n", m)
		fmt.Fprintf(&b, "%-18s", "policy\\batch")
		for _, bt := range series[0].Batch {
			fmt.Fprintf(&b, "%10d", bt)
		}
		fmt.Fprintln(&b)
		for _, s := range series {
			fmt.Fprintf(&b, "%-18s", s.Policy)
			for _, v := range s.Thr {
				if v == 0 {
					fmt.Fprintf(&b, "%10s", "x")
				} else {
					fmt.Fprintf(&b, "%10.1f", v)
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// TimelineFigure is the Fig. 2(a) data: the memory footprint over time
// for two policies on the same workload.
type TimelineFigure struct {
	Model    string
	Batch    int
	Policies []string
	Lines    map[string][]sim.TimelinePoint
	Peaks    map[string]int64
}

// Fig2aMemoryTimeline reproduces paper Fig. 2(a): SuperNeurons'
// repeated memory peaks vs TSPLIT's flattened footprint on VGG-16.
func Fig2aMemoryTimeline(dev device.Device, batch int) (*TimelineFigure, error) {
	fig := &TimelineFigure{
		Model: "vgg16", Batch: batch,
		Policies: []string{"superneurons", "tsplit"},
		Lines:    map[string][]sim.TimelinePoint{},
		Peaks:    map[string]int64{},
	}
	p, err := prepare("vgg16", models.Config{BatchSize: batch}, dev)
	if err != nil {
		return nil, err
	}
	for _, pol := range fig.Policies {
		_, res, err := p.RunPolicy(pol, core.Options{}, sim.Options{CollectTimeline: true})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s infeasible for fig2a: %w", pol, err)
		}
		fig.Lines[pol] = res.Timeline
		fig.Peaks[pol] = res.PeakBytes
	}
	return fig, nil
}

// Render draws peak summaries and a coarse sparkline per policy.
func (f *TimelineFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2(a): memory footprint over time, %s batch %d\n", f.Model, f.Batch)
	levels := []rune(" .:-=+*#%@")
	for _, pol := range f.Policies {
		line := f.Lines[pol]
		peak := f.Peaks[pol]
		fmt.Fprintf(&b, "%-14s peak %6.1f GiB |", pol, float64(peak)/(1<<30))
		// Downsample to 80 columns.
		cols := 80
		for c := 0; c < cols; c++ {
			idx := c * len(line) / cols
			var v int64
			if idx < len(line) {
				v = line[idx].MemUsed
			}
			l := int(float64(v) / float64(peak) * float64(len(levels)-1))
			if l < 0 {
				l = 0
			}
			if l >= len(levels) {
				l = len(levels) - 1
			}
			b.WriteRune(levels[l])
		}
		fmt.Fprintln(&b, "|")
	}
	return b.String()
}

// OverheadRow is one model of Fig. 2(b): a policy's slowdown over the
// ideal (infinite-memory) execution and its PCIe utilization.
type OverheadRow struct {
	Model       string
	Batch       int
	OverheadPct float64
	PCIePct     float64
}

// fig2bBatches puts each CNN under real memory pressure on the RTX.
var fig2bBatches = map[string]int{
	"vgg16": 256, "vgg19": 256, "resnet50": 384, "resnet101": 256, "inceptionv4": 384,
}

// Fig2bOverheadPCIe reproduces paper Fig. 2(b): SuperNeurons'
// performance overhead (25~45% in the paper) and PCIe utilization
// (~45.6% average) across the five CNN models under memory
// over-subscription.
func Fig2bOverheadPCIe(dev device.Device, policy string) ([]OverheadRow, error) {
	mods := []string{"vgg16", "vgg19", "resnet50", "resnet101", "inceptionv4"}
	rows := make([]OverheadRow, len(mods))
	errs := make([]error, len(mods))
	forEach(len(mods), func(i int) {
		m := mods[i]
		batch := fig2bBatches[m]
		p, err := prepare(m, models.Config{BatchSize: batch}, dev)
		if err != nil {
			errs[i] = err
			return
		}
		r := RunPolicy(p, policy)
		if !r.Feasible {
			rows[i] = OverheadRow{Model: m, Batch: batch}
			return
		}
		ideal := p.Prof.Total()
		rows[i] = OverheadRow{
			Model: m, Batch: batch,
			OverheadPct: 100 * (r.Res.Time - ideal) / ideal,
			PCIePct:     100 * r.Res.PCIeUtilization,
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderOverhead draws Fig. 2(b) rows.
func RenderOverhead(policy string, rows []OverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2(b): %s overhead and PCIe utilization\n", policy)
	var sumP float64
	n := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s batch %4d  overhead %6.1f%%  pcie %5.1f%%\n", r.Model, r.Batch, r.OverheadPct, r.PCIePct)
		if r.PCIePct > 0 {
			sumP += r.PCIePct
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(&b, "mean PCIe utilization: %.1f%%\n", sumP/float64(n))
	}
	return b.String()
}

// SplitCurve is one operator's execution time vs partition count
// (paper Fig. 5).
type SplitCurve struct {
	Op    string
	PNums []int
	Times []float64 // total execution time across micro-operators
}

// Fig5OpSplitCurves reproduces paper Fig. 5: how operator execution
// time changes with the partition number, per operator type.
func Fig5OpSplitCurves(dev device.Device, batch int) ([]SplitCurve, error) {
	g, err := buildGraph("vgg16", models.Config{BatchSize: batch, ForwardOnly: true})
	if err != nil {
		return nil, err
	}
	cm := costmodel.New(dev)
	pnums := []int{1, 2, 4, 8, 16, 32, 64}
	var curves []SplitCurve
	want := map[string]bool{"b1.conv2": true, "b3.conv2": true, "b5.conv1": true, "b1.pool": true, "fc1": true}
	for _, op := range g.Ops {
		if !want[op.Name] {
			continue
		}
		c := SplitCurve{Op: fmt.Sprintf("%s(%s)", op.Name, op.Kind), PNums: pnums}
		for _, p := range pnums {
			_, total := cm.SplitTimes(op, p)
			c.Times = append(c.Times, total)
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// RenderFig5 draws the partition-time curves (normalized to p=1).
func RenderFig5(curves []SplitCurve) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 5: operator time vs partition count (normalized to unsplit)")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-22s", c.Op)
		for i, p := range c.PNums {
			fmt.Fprintf(&b, "  p%-3d %5.2fx", p, c.Times[i]/c.Times[0])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
