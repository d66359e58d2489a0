// Package models builds the dataflow graphs of the paper's six
// evaluation workloads (Sec. VI-A): VGG-16, VGG-19, ResNet-50,
// ResNet-101, Inception-V4 (ImageNet-shaped inputs) and a
// Transformer encoder (BERT-style, IWSLT-shaped inputs).
//
// Every model is parameterized along the two scaling axes of the
// paper's evaluation: the sample scale (batch size / number of
// sequences) and the parameter scale (a multiplier on convolution
// channels or Transformer hidden size — "if the original channel size
// is c1 and the parameter scale number is k, it has c1·k channels
// after scaling", Sec. VI-B).
package models

import (
	"fmt"
	"math"
	"sort"

	"tsplit/internal/graph"
)

// Config selects the workload scale.
type Config struct {
	// BatchSize is the sample-dimension scale: images per batch for
	// CNNs, sequences per batch for the Transformer.
	BatchSize int
	// ParamScale multiplies channel counts / hidden sizes (≥ values
	// below 1 shrink the model; the paper scales upward).
	ParamScale float64
	// ImageSize is the square input resolution for CNNs (default 224;
	// Inception-V4 canonically uses 299 but the paper benchmarks all
	// CNNs on ImageNet crops — we default Inception to 299).
	ImageSize int
	// SeqLen is the token length for the Transformer (default 128).
	SeqLen int
	// NumClasses for CNN heads (default 1000).
	NumClasses int
	// VocabSize for the Transformer head (default 30522, BERT's vocab).
	VocabSize int
	// Optimizer chooses the update rule appended to the graph
	// (default Momentum; the offload experiments use Adam).
	Optimizer graph.Optimizer
	// ForwardOnly skips backward/update generation (used for inference
	// footprints and a few unit tests).
	ForwardOnly bool

	transformerDims
}

// DefaultBatchSize is the batch a Config with BatchSize 0 builds at.
const DefaultBatchSize = 32

func (c Config) withDefaults() Config {
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.ParamScale == 0 {
		c.ParamScale = 1
	}
	if c.ImageSize == 0 {
		c.ImageSize = 224
	}
	if c.SeqLen == 0 {
		c.SeqLen = 128
	}
	if c.NumClasses == 0 {
		c.NumClasses = 1000
	}
	if c.VocabSize == 0 {
		c.VocabSize = 30522
	}
	return c
}

// scaled applies the parameter-scale multiplier to a channel count.
func (c Config) scaled(channels int) int {
	n := int(math.Round(float64(channels) * c.ParamScale))
	if n < 1 {
		n = 1
	}
	return n
}

// Builder constructs a training graph for a config.
type Builder func(Config) (*graph.Graph, error)

// zooMinImageSize is the smallest input resolution the zoo is sized
// for; a model whose window ops collapse a larger image registers its
// own, higher minimum.
const zooMinImageSize = 32

type model struct {
	build    Builder
	minImage int
}

var registry = map[string]model{}

func register(name string, minImage int, b Builder) { registry[name] = model{b, minImage} }

// Build constructs the named model. Known names: vgg16, vgg19,
// resnet50, resnet101, inceptionv4, transformer, bert-large.
func Build(name string, cfg Config) (*graph.Graph, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return m.build(cfg)
}

// MinImageSize returns the smallest Config.ImageSize the named model
// builds at (0 for an unknown model). A window of Inception-V4 is
// larger than its padded input for an image under 75 pixels; every
// other model reports the zoo-wide floor of 32.
func MinImageSize(name string) int { return registry[name].minImage }

// Known reports whether name is a registered model, without the
// allocation and sort Names pays.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names lists the registered models in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finish appends backward and optimizer ops unless ForwardOnly. A
// configuration the model's window ops do not fit (an image smaller
// than the network's receptive field) is an error either way.
func finish(g *graph.Graph, cfg Config) (*graph.Graph, error) {
	if err := g.Err(); err != nil {
		return nil, err
	}
	if cfg.ForwardOnly {
		return g, nil
	}
	if err := g.Differentiate(cfg.Optimizer); err != nil {
		return nil, err
	}
	return g, nil
}
