package models

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func init() {
	register("resnet50", zooMinImageSize, func(cfg Config) (*graph.Graph, error) {
		return buildResNet(cfg, []int{3, 4, 6, 3})
	})
	register("resnet101", zooMinImageSize, func(cfg Config) (*graph.Graph, error) {
		return buildResNet(cfg, []int{3, 4, 23, 3})
	})
}

// buildResNet constructs the bottleneck ResNet family (He et al.):
// a 7×7/2 stem, four stages of bottleneck blocks (1×1 reduce, 3×3,
// 1×1 expand ×4) with projection shortcuts at stage boundaries, global
// average pooling and a linear classifier. The multi-branch topology
// is what gives TSPLIT its largest sample-scale gains in Table IV
// ("due to the complexity of multi-branch model architecture").
func buildResNet(cfg Config, stages []int) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	g := graph.New()
	x := g.Input("images", tensor.NewShape(cfg.BatchSize, 3, cfg.ImageSize, cfg.ImageSize), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(cfg.BatchSize), tensor.Int32)

	x = g.Conv2D("stem.conv", x, cfg.scaled(64), 7, 2, 3)
	x = g.BatchNorm("stem.bn", x)
	x = g.ReLU("stem.relu", x)
	x = g.MaxPool("stem.pool", x, 3, 2, 1)

	baseWidth := []int{64, 128, 256, 512}
	const expansion = 4
	for s, blocks := range stages {
		width := cfg.scaled(baseWidth[s])
		out := width * expansion
		for b := 0; b < blocks; b++ {
			name := fmt.Sprintf("s%d.b%d", s+1, b+1)
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			shortcut := x
			if b == 0 {
				// Projection shortcut matches channels (and stride).
				shortcut = g.BatchNorm(name+".proj.bn",
					g.Conv2D(name+".proj", x, out, 1, stride, 0))
			}
			y := g.Conv2D(name+".conv1", x, width, 1, 1, 0)
			y = g.BatchNorm(name+".bn1", y)
			y = g.ReLU(name+".relu1", y)
			y = g.Conv2D(name+".conv2", y, width, 3, stride, 1)
			y = g.BatchNorm(name+".bn2", y)
			y = g.ReLU(name+".relu2", y)
			y = g.Conv2D(name+".conv3", y, out, 1, 1, 0)
			y = g.BatchNorm(name+".bn3", y)
			y = g.Add(name+".residual", y, shortcut)
			x = g.ReLU(name+".relu3", y)
		}
	}

	// Global average pooling over the remaining spatial extent.
	x = g.AvgPool("gap", x, x.Shape[2], 1, 0)
	n := x.Shape[0]
	flat := g.Reshape("flatten", x, tensor.NewShape(n, int(x.Shape.NumElements())/n))
	logits := g.Dense("fc", flat, cfg.NumClasses)
	g.CrossEntropyLoss("loss", logits, labels)
	return finish(g, cfg)
}
