package workload

import (
	"testing"

	"tsplit/internal/graph"
	"tsplit/internal/tensor"
)

func imageInput(t *testing.T, n, c, hw int) *graph.Tensor {
	t.Helper()
	g := graph.New()
	return g.Input("images", tensor.NewShape(n, c, hw, hw), tensor.Float32)
}

func TestStructuredImagesAreClassSeparable(t *testing.T) {
	img := imageInput(t, 8, 1, 16)
	src, err := NewImageSource(img, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := src.Next()
	if len(b.Labels) != 8 {
		t.Fatalf("labels %d", len(b.Labels))
	}
	buf := b.Inputs[img]
	for i, cls := range b.Labels {
		oh, ow := (cls/2)*8, (cls%2)*8
		if buf.At(i, 0, oh, ow) != 1 {
			t.Fatalf("sample %d class %d quadrant not lit", i, cls)
		}
		if buf.At(i, 0, (8+oh)%16, ow) != 0 {
			t.Fatalf("sample %d off-quadrant lit", i)
		}
	}
}

func TestImageSourceDeterministic(t *testing.T) {
	img := imageInput(t, 4, 3, 8)
	a, _ := NewImageSource(img, 4, 7)
	b, _ := NewImageSource(img, 4, 7)
	ba, bb := a.Next(), b.Next()
	for i := range ba.Labels {
		if ba.Labels[i] != bb.Labels[i] {
			t.Fatal("labels differ across same-seed sources")
		}
	}
	if ba.Inputs[img].Data[5] != bb.Inputs[img].Data[5] {
		t.Fatal("pixels differ across same-seed sources")
	}
}

func TestImageSourceValidation(t *testing.T) {
	g := graph.New()
	bad := g.Input("x", tensor.NewShape(2, 3), tensor.Float32)
	if _, err := NewImageSource(bad, 4, 1); err == nil {
		t.Fatal("rank-2 input must fail")
	}
	img := imageInput(t, 2, 1, 9)
	if _, err := NewImageSource(img, 4, 1); err == nil {
		t.Fatal("odd spatial dims must fail")
	}
	if _, err := NewImageSource(imageInput(t, 2, 1, 8), 1, 1); err == nil {
		t.Fatal("single class must fail")
	}
}
