// Package workload generates the inputs the real-execution examples
// and the property tests consume: structured quadrant images (class k
// lights up quadrant k) that a small float32 classifier can actually
// learn, and RandGraph's seeded random training graphs.
package workload

import (
	"fmt"

	"tsplit/internal/graph"
	"tsplit/internal/nn"
)

// Batch is one training step's worth of data for the real engine.
type Batch struct {
	// Inputs maps graph input tensors to their value buffers.
	Inputs map[*graph.Tensor]*nn.Buffer
	// Labels are the class ids aligned with the batch rows.
	Labels []int
}

// ImageSource generates learnable quadrant-image batches: each sample
// draws a class k and lights up quadrant k of every channel.
type ImageSource struct {
	Images  *graph.Tensor
	Classes int

	rng *nn.RNG
}

// NewImageSource creates a deterministic image batch source for the
// NCHW graph input tensor images, which needs even spatial dims; there
// are 2 to 4 classes, one per quadrant.
func NewImageSource(images *graph.Tensor, classes int, seed uint64) (*ImageSource, error) {
	if images.Shape.Rank() != 4 {
		return nil, fmt.Errorf("workload: image input must be NCHW, got %v", images.Shape)
	}
	if classes < 2 || classes > 4 {
		return nil, fmt.Errorf("workload: need 2 to 4 classes, got %d", classes)
	}
	if images.Shape[2]%2 != 0 || images.Shape[3]%2 != 0 {
		return nil, fmt.Errorf("workload: quadrant images need even spatial dims, got %v", images.Shape)
	}
	return &ImageSource{Images: images, Classes: classes, rng: nn.NewRNG(seed)}, nil
}

// Next produces the next batch.
func (s *ImageSource) Next() Batch {
	n := s.Images.Shape[0]
	img := nn.NewBuffer(s.Images.Shape)
	labels := make([]int, n)
	h2, w2 := s.Images.Shape[2]/2, s.Images.Shape[3]/2
	for b := 0; b < n; b++ {
		cls := s.rng.Intn(s.Classes)
		labels[b] = cls
		oh, ow := (cls/2)*h2, (cls%2)*w2
		for c := 0; c < s.Images.Shape[1]; c++ {
			for i := 0; i < h2; i++ {
				for j := 0; j < w2; j++ {
					img.Set(1, b, c, oh+i, ow+j)
				}
			}
		}
	}
	return Batch{Inputs: map[*graph.Tensor]*nn.Buffer{s.Images: img}, Labels: labels}
}
