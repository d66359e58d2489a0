package experiments

import (
	"fmt"
	"strings"

	"tsplit/internal/core"
	"tsplit/internal/device"
	"tsplit/internal/graph"
	"tsplit/internal/models"
)

// MemoryScalePoint is one cell of the paper's Fig. 1: the training
// memory requirement of BERT-Large at a (sample scale, parameter
// scale) point.
type MemoryScalePoint struct {
	Batch      int
	ParamScale float64
	Hidden     int
	PeakGiB    float64
}

// Fig1BERTMemoryScale reproduces paper Fig. 1: BERT-Large training
// memory over the sample × parameter scale grid, plus the maximum
// trainable scale product for each mainstream GPU (the figure's black
// capacity lines).
func (s *Sweep) Fig1BERTMemoryScale() ([]MemoryScalePoint, map[string]int64, error) {
	batches := []int{4, 8, 16, 32, 64}
	scales := []float64{0.75, 1.0, 1.25, 1.5, 2.0}
	type cell struct {
		batch int
		scale float64
	}
	var cells []cell
	for _, b := range batches {
		for _, k := range scales {
			cells = append(cells, cell{b, k})
		}
	}
	grid := make([]MemoryScalePoint, len(cells))
	errs := make([]error, len(cells))
	s.forEach(len(cells), func(i int) {
		b, k := cells[i].batch, cells[i].scale
		g, err := s.buildGraph("bert-large", models.Config{BatchSize: b, ParamScale: k})
		if err != nil {
			errs[i] = err
			return
		}
		sched, err := graph.BuildSchedule(g)
		if err != nil {
			errs[i] = err
			return
		}
		lv := graph.AnalyzeLiveness(g, sched)
		hidden := 0
		if len(g.Params) > 0 {
			hidden = g.Params[0].Shape[1] // embedding table [vocab, hidden]
		}
		grid[i] = MemoryScalePoint{
			Batch: b, ParamScale: k, Hidden: hidden,
			PeakGiB: float64(lv.Peak) / (1 << 30),
		}
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	caps := map[string]int64{}
	for _, d := range device.All {
		caps[d.Name] = d.MemBytes
	}
	return grid, caps, nil
}

// RenderFig1 draws the memory grid with per-GPU trainability marks.
func RenderFig1(grid []MemoryScalePoint, caps map[string]int64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 1: BERT-Large memory requirement (GiB) vs model scale")
	fmt.Fprintf(&b, "%-8s %-8s %-8s %10s   trainable on\n", "batch", "k", "hidden", "peak GiB")
	for _, pt := range grid {
		fmt.Fprintf(&b, "%-8d %-8.2f %-8d %10.1f   ", pt.Batch, pt.ParamScale, pt.Hidden, pt.PeakGiB)
		var fits []string
		for _, d := range device.All {
			if int64(pt.PeakGiB*(1<<30)) <= caps[d.Name] {
				fits = append(fits, d.Name)
			}
		}
		if len(fits) == 0 {
			fmt.Fprint(&b, "none")
		} else {
			fmt.Fprint(&b, strings.Join(fits, ", "))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ThroughputConstrainedScale is one bar of paper Fig. 14(a): the
// maximum trainable sample size while sustaining at least x% of the
// Base throughput.
type ThroughputConstrainedScale struct {
	Model   string
	Policy  string
	Pct     int
	MaxSize int
}

// Fig14aScaleUnderThroughput reproduces paper Fig. 14(a): max sample
// size under 60% / 50% of Base throughput, comparing SuperNeurons,
// TSPLIT w/o Split and TSPLIT on VGG-16 and ResNet-101.
func (s *Sweep) Fig14aScaleUnderThroughput(dev device.Device, hi int) ([]ThroughputConstrainedScale, error) {
	if hi == 0 {
		hi = 2048
	}
	mods := []string{"vgg16", "resnet101"}
	pols := []string{"superneurons", "tsplit-nosplit", "tsplit"}
	// Per-model reference throughput first (cheap), then the expensive
	// (model, policy) frontier searches concurrently; each produces its
	// two pct rows, stitched back in sweep order. Every workload of
	// the call is rebatched from one template per model.
	maxScale := func(m, pol string) int {
		return s.sampleScales(dev, []string{m}, []string{pol}, models.Config{}, hi)[0][0]
	}
	baseThr := make([]float64, len(mods))
	errs := make([]error, len(mods))
	s.forEach(len(mods), func(mi int) {
		m := mods[mi]
		baseMax := maxScale(m, "base")
		if baseMax == 0 {
			errs[mi] = fmt.Errorf("experiments: base cannot train %s at all", m)
			return
		}
		p, err := s.templates.Prepare(m, models.Config{BatchSize: baseMax}, dev, s.Obs)
		if err != nil {
			errs[mi] = err
			return
		}
		baseThr[mi] = RunPolicy(p, "base").Throughput(baseMax)
		p.Release()
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	results := make([][]ThroughputConstrainedScale, len(mods)*len(pols))
	s.forEach(len(results), func(k int) {
		m, pol := mods[k/len(pols)], pols[k%len(pols)]
		// Throughput rises then falls with batch size, so the
		// constraint binds on the falling side: start from the
		// policy's feasibility limit and step down until the
		// throughput floor is met.
		polMax := maxScale(m, pol)
		thrAt := func(b int) float64 {
			pp, err := s.templates.Prepare(m, models.Config{BatchSize: b}, dev, s.Obs)
			if err != nil {
				return 0
			}
			thr := RunPolicy(pp, pol).Throughput(b)
			pp.Release()
			return thr
		}
		for _, pct := range []int{60, 50} {
			need := baseThr[k/len(pols)] * float64(pct) / 100
			step := polMax / 24
			if step < 1 {
				step = 1
			}
			max := 0
			for b := polMax; b >= 1; b -= step {
				if thrAt(b) >= need {
					max = b
					break
				}
			}
			results[k] = append(results[k], ThroughputConstrainedScale{
				Model: m, Policy: pol, Pct: pct, MaxSize: max,
			})
		}
	})
	var rows []ThroughputConstrainedScale
	for _, r := range results {
		rows = append(rows, r...)
	}
	return rows, nil
}

// RenderFig14a draws the Fig. 14(a) bars.
func RenderFig14a(rows []ThroughputConstrainedScale) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 14(a): max sample size under x% of Base throughput")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-16s %3d%%  max batch %5d\n", r.Model, r.Policy, r.Pct, r.MaxSize)
	}
	return b.String()
}

// StrategyMix is one device of paper Fig. 14(b): the bytes TSPLIT
// chose to swap vs recompute for the same model on different GPUs.
type StrategyMix struct {
	Device         string
	Batch          int
	SwapGiB        float64
	RecomputeGiB   float64
	SplitOperators int
}

// Fig14bStrategyMix reproduces paper Fig. 14(b): TSPLIT picks more
// swap (and less recompute) on the slower GTX 1080Ti because its
// recomputation is relatively more expensive. Each device is put under
// comparable relative memory pressure (batch 0 = pick per device).
func (s *Sweep) Fig14bStrategyMix(batch int) ([]StrategyMix, error) {
	var rows []StrategyMix
	batches := map[string]int{device.TitanRTX.Name: batch, device.GTX1080Ti.Name: batch}
	if batch == 0 {
		batches[device.TitanRTX.Name] = 288
		batches[device.GTX1080Ti.Name] = 160
	}
	for _, dev := range []device.Device{device.TitanRTX, device.GTX1080Ti} {
		batch := batches[dev.Name]
		p, err := s.prepare("vgg16", models.Config{BatchSize: batch}, dev)
		if err != nil {
			return nil, err
		}
		plan, _, err := p.PlanPolicy("tsplit", core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: tsplit cannot plan vgg16 batch %d on %s: %w", batch, dev.Name, err)
		}
		c := plan.Counts()
		rows = append(rows, StrategyMix{
			Device: dev.Name, Batch: batch,
			SwapGiB:        float64(c.SwapBytes) / (1 << 30),
			RecomputeGiB:   float64(c.RecomputeBytes) / (1 << 30),
			SplitOperators: c.SplitOps,
		})
	}
	return rows, nil
}

// RenderFig14b draws the strategy-mix comparison.
func RenderFig14b(rows []StrategyMix) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 14(b): TSPLIT strategy mix per device (VGG-16)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s batch %4d  swap %6.2f GiB  recompute %6.2f GiB  split ops %d\n",
			r.Device, r.Batch, r.SwapGiB, r.RecomputeGiB, r.SplitOperators)
	}
	return b.String()
}
