package models

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func init() {
	register("inceptionv4", 75, buildInceptionV4)
}

// incCtx threads the graph and scale config through the many helper
// blocks of Inception-V4.
type incCtx struct {
	g   *graph.Graph
	cfg Config
}

// convBN is Inception's conv→BN→ReLU unit.
func (c *incCtx) convBN(name string, x *graph.Tensor, outC, kh, kw, sh, sw, ph, pw int) *graph.Tensor {
	y := c.g.Conv2DRect(name, x, c.cfg.scaled(outC), kh, kw, sh, sw, ph, pw)
	y = c.g.BatchNorm(name+".bn", y)
	return c.g.ReLU(name+".relu", y)
}

func (c *incCtx) conv(name string, x *graph.Tensor, outC, k, s, p int) *graph.Tensor {
	return c.convBN(name, x, outC, k, k, s, s, p, p)
}

// stem is the Inception-V4 stem: 299×299×3 → 35×35×384.
func (c *incCtx) stem(x *graph.Tensor) *graph.Tensor {
	g := c.g
	x = c.conv("stem.c1", x, 32, 3, 2, 0) // 149
	x = c.conv("stem.c2", x, 32, 3, 1, 0) // 147
	x = c.conv("stem.c3", x, 64, 3, 1, 1) // 147

	p1 := g.MaxPool("stem.p4a", x, 3, 2, 0)
	c1 := c.conv("stem.c4b", x, 96, 3, 2, 0)
	x = g.Concat("stem.cat4", 1, p1, c1) // 73×73×160

	b1 := c.conv("stem.c5a1", x, 64, 1, 1, 0)
	b1 = c.conv("stem.c5a2", b1, 96, 3, 1, 0)
	b2 := c.conv("stem.c5b1", x, 64, 1, 1, 0)
	b2 = c.convBN("stem.c5b2", b2, 64, 1, 7, 1, 1, 0, 3)
	b2 = c.convBN("stem.c5b3", b2, 64, 7, 1, 1, 1, 3, 0)
	b2 = c.conv("stem.c5b4", b2, 96, 3, 1, 0)
	x = g.Concat("stem.cat5", 1, b1, b2) // 71×71×192

	c2 := c.conv("stem.c6a", x, 192, 3, 2, 0)
	p2 := g.MaxPool("stem.p6b", x, 3, 2, 0)
	return g.Concat("stem.cat6", 1, c2, p2) // 35×35×384
}

// inceptionA: 35×35 block, output 384 channels.
func (c *incCtx) inceptionA(name string, x *graph.Tensor) *graph.Tensor {
	g := c.g
	b1 := g.AvgPool(name+".b1.pool", x, 3, 1, 1)
	b1 = c.conv(name+".b1.c", b1, 96, 1, 1, 0)
	b2 := c.conv(name+".b2.c", x, 96, 1, 1, 0)
	b3 := c.conv(name+".b3.c1", x, 64, 1, 1, 0)
	b3 = c.conv(name+".b3.c2", b3, 96, 3, 1, 1)
	b4 := c.conv(name+".b4.c1", x, 64, 1, 1, 0)
	b4 = c.conv(name+".b4.c2", b4, 96, 3, 1, 1)
	b4 = c.conv(name+".b4.c3", b4, 96, 3, 1, 1)
	return g.Concat(name+".cat", 1, b1, b2, b3, b4)
}

// reductionA: 35×35×384 → 17×17×1024.
func (c *incCtx) reductionA(name string, x *graph.Tensor) *graph.Tensor {
	g := c.g
	b1 := g.MaxPool(name+".b1.pool", x, 3, 2, 0)
	b2 := c.conv(name+".b2.c", x, 384, 3, 2, 0)
	b3 := c.conv(name+".b3.c1", x, 192, 1, 1, 0)
	b3 = c.conv(name+".b3.c2", b3, 224, 3, 1, 1)
	b3 = c.conv(name+".b3.c3", b3, 256, 3, 2, 0)
	return g.Concat(name+".cat", 1, b1, b2, b3)
}

// inceptionB: 17×17 block, output 1024 channels.
func (c *incCtx) inceptionB(name string, x *graph.Tensor) *graph.Tensor {
	g := c.g
	b1 := g.AvgPool(name+".b1.pool", x, 3, 1, 1)
	b1 = c.conv(name+".b1.c", b1, 128, 1, 1, 0)
	b2 := c.conv(name+".b2.c", x, 384, 1, 1, 0)
	b3 := c.conv(name+".b3.c1", x, 192, 1, 1, 0)
	b3 = c.convBN(name+".b3.c2", b3, 224, 1, 7, 1, 1, 0, 3)
	b3 = c.convBN(name+".b3.c3", b3, 256, 7, 1, 1, 1, 3, 0)
	b4 := c.conv(name+".b4.c1", x, 192, 1, 1, 0)
	b4 = c.convBN(name+".b4.c2", b4, 192, 1, 7, 1, 1, 0, 3)
	b4 = c.convBN(name+".b4.c3", b4, 224, 7, 1, 1, 1, 3, 0)
	b4 = c.convBN(name+".b4.c4", b4, 224, 1, 7, 1, 1, 0, 3)
	b4 = c.convBN(name+".b4.c5", b4, 256, 7, 1, 1, 1, 3, 0)
	return g.Concat(name+".cat", 1, b1, b2, b3, b4)
}

// reductionB: 17×17×1024 → 8×8×1536.
func (c *incCtx) reductionB(name string, x *graph.Tensor) *graph.Tensor {
	g := c.g
	b1 := g.MaxPool(name+".b1.pool", x, 3, 2, 0)
	b2 := c.conv(name+".b2.c1", x, 192, 1, 1, 0)
	b2 = c.conv(name+".b2.c2", b2, 192, 3, 2, 0)
	b3 := c.conv(name+".b3.c1", x, 256, 1, 1, 0)
	b3 = c.convBN(name+".b3.c2", b3, 256, 1, 7, 1, 1, 0, 3)
	b3 = c.convBN(name+".b3.c3", b3, 320, 7, 1, 1, 1, 3, 0)
	b3 = c.conv(name+".b3.c4", b3, 320, 3, 2, 0)
	return g.Concat(name+".cat", 1, b1, b2, b3)
}

// inceptionC: 8×8 block, output 1536 channels.
func (c *incCtx) inceptionC(name string, x *graph.Tensor) *graph.Tensor {
	g := c.g
	b1 := g.AvgPool(name+".b1.pool", x, 3, 1, 1)
	b1 = c.conv(name+".b1.c", b1, 256, 1, 1, 0)
	b2 := c.conv(name+".b2.c", x, 256, 1, 1, 0)
	b3 := c.conv(name+".b3.c1", x, 384, 1, 1, 0)
	b3a := c.convBN(name+".b3.c2a", b3, 256, 1, 3, 1, 1, 0, 1)
	b3b := c.convBN(name+".b3.c2b", b3, 256, 3, 1, 1, 1, 1, 0)
	b4 := c.conv(name+".b4.c1", x, 384, 1, 1, 0)
	b4 = c.convBN(name+".b4.c2", b4, 448, 1, 3, 1, 1, 0, 1)
	b4 = c.convBN(name+".b4.c3", b4, 512, 3, 1, 1, 1, 1, 0)
	b4a := c.convBN(name+".b4.c4a", b4, 256, 3, 1, 1, 1, 1, 0)
	b4b := c.convBN(name+".b4.c4b", b4, 256, 1, 3, 1, 1, 0, 1)
	return g.Concat(name+".cat", 1, b1, b2, b3a, b3b, b4a, b4b)
}

// buildInceptionV4 constructs Inception-V4 (Szegedy et al. 2016):
// stem, 4× Inception-A, Reduction-A, 7× Inception-B, Reduction-B,
// 3× Inception-C, global average pooling, dropout, classifier. The
// many concatenation branches make it the model with the largest
// sample-scale headroom for TSPLIT in the paper's Table IV (38×).
func buildInceptionV4(cfg Config) (*graph.Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.ImageSize == 224 {
		cfg.ImageSize = 299 // canonical Inception input
	}
	g := graph.New()
	c := &incCtx{g: g, cfg: cfg}
	x := g.Input("images", tensor.NewShape(cfg.BatchSize, 3, cfg.ImageSize, cfg.ImageSize), tensor.Float32)
	labels := g.Input("labels", tensor.NewShape(cfg.BatchSize), tensor.Int32)

	x = c.stem(x)
	for i := 0; i < 4; i++ {
		x = c.inceptionA(fmt.Sprintf("incA%d", i+1), x)
	}
	x = c.reductionA("redA", x)
	for i := 0; i < 7; i++ {
		x = c.inceptionB(fmt.Sprintf("incB%d", i+1), x)
	}
	x = c.reductionB("redB", x)
	for i := 0; i < 3; i++ {
		x = c.inceptionC(fmt.Sprintf("incC%d", i+1), x)
	}

	x = g.AvgPool("gap", x, x.Shape[2], 1, 0)
	n := x.Shape[0]
	flat := g.Reshape("flatten", x, tensor.NewShape(n, int(x.Shape.NumElements())/n))
	flat = g.Dropout("drop", flat, 0.8)
	logits := g.Dense("fc", flat, cfg.NumClasses)
	g.CrossEntropyLoss("loss", logits, labels)
	return finish(g, cfg)
}
