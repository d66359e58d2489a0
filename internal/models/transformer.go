package models

import (
	"fmt"
	"math"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func init() {
	register("transformer", zooMinImageSize, buildTransformer)
	register("bert-large", zooMinImageSize, func(cfg Config) (*graph.Graph, error) {
		cfg.transformerDepth = 24
		cfg.transformerHidden = 1024
		cfg.transformerHeads = 16
		return buildTransformer(cfg)
	})
}

// Transformer-specific knobs with BERT-ish defaults. Unexported: set
// through the named registry entries or left at defaults; ParamScale
// multiplies the hidden size (the paper's Transformer parameter-scale
// axis, Fig. 1: "the parameter scale refers to hidden size").
type transformerDims struct {
	transformerDepth  int
	transformerHidden int
	transformerHeads  int
}

func (c Config) transformerConfig() (depth, hidden, heads, ffn int) {
	depth = c.transformerDepth
	if depth == 0 {
		depth = 12
	}
	hidden = c.transformerHidden
	if hidden == 0 {
		hidden = 768
	}
	heads = c.transformerHeads
	if heads == 0 {
		heads = hidden / 64
	}
	// Parameter scaling: multiply hidden, keep it a multiple of heads.
	hidden = int(math.Round(float64(hidden) * c.ParamScale))
	if hidden < heads {
		hidden = heads
	}
	hidden -= hidden % heads
	return depth, hidden, heads, 4 * hidden
}

// buildTransformer constructs an encoder-only Transformer (BERT-style)
// with token embedding, depth× (multi-head self-attention + FFN)
// blocks with residual connections and layer norm, and a tied
// vocabulary projection trained with token-level cross entropy. The
// attention score tensors ([N·heads, S, S]) and the vocabulary logits
// ([N·S, vocab]) are the >500 MB tensors of the paper's Table II that
// motivate splitting; the absence of convolutions is why vDNN-conv and
// SuperNeurons show × for this model in Tables IV/V.
func buildTransformer(cfg Config) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	depth, hidden, heads, ffn := cfg.transformerConfig()
	n, s := cfg.BatchSize, cfg.SeqLen
	dh := hidden / heads

	g := graph.New()
	ids := g.Input("ids", tensor.NewShape(n, s), tensor.Int32)
	labels := g.Input("labels", tensor.NewShape(n*s), tensor.Int32)

	x := g.EmbeddingLookup("embed", ids, cfg.VocabSize, hidden)
	x = g.LayerNorm("embed.ln", x)

	for l := 0; l < depth; l++ {
		p := fmt.Sprintf("l%d", l+1)
		// --- multi-head self-attention ---
		q := g.DenseSeq(p+".q", x, hidden)
		k := g.DenseSeq(p+".k", x, hidden)
		v := g.DenseSeq(p+".v", x, hidden)
		qh := g.Reshape(p+".qh", q, tensor.NewShape(n*heads, s, dh))
		kh := g.Reshape(p+".kh", k, tensor.NewShape(n*heads, s, dh))
		vh := g.Reshape(p+".vh", v, tensor.NewShape(n*heads, s, dh))
		kt := g.TransposeLast(p+".kt", kh)
		scores := g.MatMul3(p+".scores", qh, kt)
		scaled := g.Scale(p+".scale", scores, 1/math.Sqrt(float64(dh)))
		probs := g.Softmax(p+".softmax", scaled, 2)
		probs = g.Dropout(p+".attndrop", probs, 0.9)
		ctx := g.MatMul3(p+".ctx", probs, vh)
		merged := g.Reshape(p+".merge", ctx, tensor.NewShape(n, s, hidden))
		attnOut := g.DenseSeq(p+".proj", merged, hidden)
		x = g.LayerNorm(p+".ln1", g.Add(p+".res1", x, attnOut))
		// --- position-wise feed-forward ---
		h := g.DenseSeq(p+".ffn1", x, ffn)
		h = g.GELU(p+".gelu", h)
		h = g.DenseSeq(p+".ffn2", h, hidden)
		x = g.LayerNorm(p+".ln2", g.Add(p+".res2", x, h))
	}

	flat := g.Reshape("head.flat", x, tensor.NewShape(n*s, hidden))
	logits := g.Dense("head.vocab", flat, cfg.VocabSize)
	g.CrossEntropyLoss("loss", logits, labels)
	return finish(g, cfg)
}
