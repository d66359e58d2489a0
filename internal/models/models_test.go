package models

import (
	"strings"
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func build(t *testing.T, name string, cfg Config) *graph.Graph {
	t.Helper()
	g, err := Build(name, cfg)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return g
}

func peakGiB(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	s, err := graph.BuildSchedule(g)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	lv := graph.AnalyzeLiveness(g, s)
	return float64(lv.Peak) / (1 << 30)
}

func TestAllModelsBuildAndSchedule(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g := build(t, name, Config{BatchSize: 8})
			if g.Loss == nil {
				t.Fatal("no loss set")
			}
			s, err := graph.BuildSchedule(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Ops) != len(g.Ops) {
				t.Fatalf("schedule has %d ops, graph has %d", len(s.Ops), len(g.Ops))
			}
			// Every op must come after its producers.
			for _, op := range g.Ops {
				for _, in := range op.Inputs {
					if p := in.Producer; p != nil && s.Index[p] >= s.Index[op] {
						t.Fatalf("op %s scheduled before producer %s", op, p)
					}
				}
			}
		})
	}
}

func TestModelParamCounts(t *testing.T) {
	// Sanity-check parameter counts against the published sizes
	// (within 15%: our graphs include BN/LN affine params etc.).
	cases := []struct {
		model  string
		cfg    Config
		params float64 // millions
	}{
		{"vgg16", Config{BatchSize: 1}, 138},
		{"vgg19", Config{BatchSize: 1}, 144},
		{"resnet50", Config{BatchSize: 1}, 25.6},
		{"resnet101", Config{BatchSize: 1}, 44.5},
		{"inceptionv4", Config{BatchSize: 1}, 42.7},
		{"bert-large", Config{BatchSize: 1}, 335},
	}
	for _, c := range cases {
		g := build(t, c.model, c.cfg)
		var n int64
		for _, p := range g.Params {
			n += p.Shape.NumElements()
		}
		got := float64(n) / 1e6
		if got < c.params*0.85 || got > c.params*1.15 {
			t.Errorf("%s: %.1fM params, want ~%.1fM", c.model, got, c.params)
		}
	}
}

func TestVGG16MemoryGrowsWithBatch(t *testing.T) {
	small := peakGiB(t, build(t, "vgg16", Config{BatchSize: 4}))
	large := peakGiB(t, build(t, "vgg16", Config{BatchSize: 64}))
	if large <= small {
		t.Fatalf("peak should grow with batch: %f vs %f", small, large)
	}
	// VGG-16 batch 64 training footprint is on the order of 10+ GiB.
	if large < 5 || large > 60 {
		t.Errorf("vgg16 batch-64 peak %.1f GiB implausible", large)
	}
}

func TestParamScaleGrowsParams(t *testing.T) {
	base := build(t, "resnet50", Config{BatchSize: 2, ParamScale: 1})
	wide := build(t, "resnet50", Config{BatchSize: 2, ParamScale: 2})
	var nb, nw int64
	for _, p := range base.Params {
		nb += p.Shape.NumElements()
	}
	for _, p := range wide.Params {
		nw += p.Shape.NumElements()
	}
	if nw < 3*nb {
		t.Fatalf("2x width should give ~4x params: %d vs %d", nb, nw)
	}
}

func TestTransformerHasNoConv(t *testing.T) {
	g := build(t, "transformer", Config{BatchSize: 2, SeqLen: 32})
	for _, op := range g.Ops {
		if op.Kind == graph.Conv2D {
			t.Fatalf("transformer graph contains conv: %s", op)
		}
	}
}

func TestGradientsCoverParams(t *testing.T) {
	g := build(t, "vgg16", Config{BatchSize: 2})
	for _, p := range g.Params {
		if gt := g.GradTensor(p); gt == nil {
			t.Errorf("param %s has no gradient", p.Name)
		} else if gt.Kind != tensor.ParamGrad {
			t.Errorf("param %s gradient has kind %v", p.Name, gt.Kind)
		}
	}
}

func TestForwardOnlySkipsBackward(t *testing.T) {
	g := build(t, "resnet50", Config{BatchSize: 2, ForwardOnly: true})
	for _, op := range g.Ops {
		if op.Phase != graph.Forward {
			t.Fatalf("forward-only graph has %v op %s", op.Phase, op)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	if _, err := Build("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// TestImageTooSmallIsAnError: an image smaller than a network's
// receptive field is a build error, not a panic. Inception-v4
// collapses 32, 48 and 64 pixels (its minimum is 75); every other
// model builds at all three.
func TestImageTooSmallIsAnError(t *testing.T) {
	for _, name := range Names() {
		for _, size := range []int{32, 48, 64} {
			for _, fwd := range []bool{false, true} {
				g, err := Build(name, Config{BatchSize: 2, ImageSize: size, ForwardOnly: fwd})
				if size < MinImageSize(name) {
					if err == nil || g != nil || !strings.Contains(err.Error(), "collapses extent") {
						t.Errorf("%s at %d px (forward-only %v): graph %v, err %v; want a collapse error", name, size, fwd, g != nil, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s at %d px (forward-only %v): %v", name, size, fwd, err)
				}
			}
		}
	}
}

// TestKnownMatchesNames: Known answers membership in Names exactly.
func TestKnownMatchesNames(t *testing.T) {
	for _, name := range Names() {
		if !Known(name) {
			t.Errorf("Known(%q) = false for a registered model", name)
		}
	}
	for _, name := range []string{"", "alexnet", "VGG16"} {
		if Known(name) {
			t.Errorf("Known(%q) = true for an unregistered name", name)
		}
	}
}

// TestMinImageSize holds each model to its reported minimum: it builds
// there (at batch 1 and 2) and, where a smaller size is still at or
// above the zoo floor, fails one pixel below.
func TestMinImageSize(t *testing.T) {
	for _, name := range Names() {
		floor := MinImageSize(name)
		if floor < zooMinImageSize {
			t.Fatalf("%s: minimum %d below the zoo floor %d", name, floor, zooMinImageSize)
		}
		for _, batch := range []int{1, 2} {
			if _, err := Build(name, Config{BatchSize: batch, ImageSize: floor}); err != nil {
				t.Errorf("%s at its minimum image size %d, batch %d: %v", name, floor, batch, err)
			}
			if floor-1 < zooMinImageSize {
				continue
			}
			if _, err := Build(name, Config{BatchSize: batch, ImageSize: floor - 1}); err == nil {
				t.Errorf("%s builds at image size %d, below its reported minimum %d", name, floor-1, floor)
			}
		}
	}
	// A window larger than its padded input collapses (graph.convOut),
	// which moves Inception-v4's floor from the 59 that truncating
	// division allowed to 75.
	if got := MinImageSize("inceptionv4"); got != 75 {
		t.Errorf("MinImageSize(inceptionv4) = %d, want 75", got)
	}
	if _, err := Build("inceptionv4", Config{BatchSize: 2, ImageSize: 74}); err == nil {
		t.Error("inceptionv4 builds at image size 74")
	}
	if got := MinImageSize("alexnet"); got != 0 {
		t.Errorf("MinImageSize of an unknown model = %d, want 0", got)
	}
}
