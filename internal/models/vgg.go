package models

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func init() {
	register("vgg16", zooMinImageSize, func(cfg Config) (*graph.Graph, error) { return buildVGG(cfg, vgg16Blocks) })
	register("vgg19", zooMinImageSize, func(cfg Config) (*graph.Graph, error) { return buildVGG(cfg, vgg19Blocks) })
}

// Per-block convolution counts; channel plans are shared.
var (
	vgg16Blocks = []int{2, 2, 3, 3, 3}
	vgg19Blocks = []int{2, 2, 4, 4, 4}
	vggChannels = []int{64, 128, 256, 512, 512}
)

// buildVGG constructs VGG-16/19 (Simonyan & Zisserman): five conv
// blocks of 3×3 convolutions separated by 2×2 max-pooling, then three
// fully-connected layers. The early blocks produce the huge
// 64×224×224 / 128×112×112 feature maps that are the memory
// bottleneck the paper's Fig. 2(a) shows for SuperNeurons.
func buildVGG(cfg Config, blocks []int) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	g := graph.New()
	x := g.Input("images", tensor.NewShape(cfg.BatchSize, 3, cfg.ImageSize, cfg.ImageSize), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(cfg.BatchSize), tensor.Int32)

	for b, convs := range blocks {
		ch := cfg.scaled(vggChannels[b])
		for c := 0; c < convs; c++ {
			name := fmt.Sprintf("b%d.conv%d", b+1, c+1)
			x = g.Conv2D(name, x, ch, 3, 1, 1)
			x = g.ReLU(name+".relu", x)
		}
		x = g.MaxPool(fmt.Sprintf("b%d.pool", b+1), x, 2, 2, 0)
	}

	// Classifier: flatten, two hidden FC layers, output FC.
	n := x.Shape[0]
	flat := g.Reshape("flatten", x, tensor.NewShape(n, int(x.Shape.NumElements())/n))
	fcDim := cfg.scaled(4096)
	h := g.ReLU("fc1.relu", g.Dense("fc1", flat, fcDim))
	h = g.Dropout("fc1.drop", h, 0.5)
	h = g.ReLU("fc2.relu", g.Dense("fc2", h, fcDim))
	h = g.Dropout("fc2.drop", h, 0.5)
	logits := g.Dense("fc3", h, cfg.NumClasses)
	g.CrossEntropyLoss("loss", logits, labels)
	return finish(g, cfg)
}
