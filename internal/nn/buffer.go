// Package nn is a real float32 execution engine for the dataflow
// graphs of this repository: dense and convolution kernels with their
// gradients, pooling, softmax cross-entropy, and buffer split/merge
// primitives.
//
// The discrete-event simulator measures *time* at data-center scale;
// this package supplies *values* at laptop scale, so the correctness
// of TSPLIT's memory machinery is verified with real numbers: a model
// trained under an aggressive memory plan (swap, recompute, split)
// must produce bit-identical losses to the unconstrained run, and a
// split matmul/convolution must equal its unsplit counterpart.
package nn

import (
	"fmt"
	"math"

	"tsplit/internal/tensor"
)

// Buffer is a dense float32 tensor value in row-major layout.
type Buffer struct {
	Shape tensor.Shape
	Data  []float32
}

// NewBuffer allocates a zeroed buffer of the given shape.
func NewBuffer(shape tensor.Shape) *Buffer {
	return &Buffer{Shape: shape.Clone(), Data: make([]float32, shape.NumElements())}
}

// NewBufferFrom wraps existing data (length must match the shape).
func NewBufferFrom(shape tensor.Shape, data []float32) *Buffer {
	if int64(len(data)) != shape.NumElements() {
		panic(fmt.Sprintf("nn: data length %d != shape %v", len(data), shape))
	}
	return &Buffer{Shape: shape.Clone(), Data: data}
}

// Clone deep-copies the buffer.
func (b *Buffer) Clone() *Buffer {
	c := NewBuffer(b.Shape)
	copy(c.Data, b.Data)
	return c
}

// Bytes returns the storage size of the buffer.
func (b *Buffer) Bytes() int64 { return int64(len(b.Data)) * 4 }

// At returns the element at the given indices (row-major).
func (b *Buffer) At(idx ...int) float32 {
	return b.Data[b.offset(idx)]
}

// Set writes the element at the given indices.
func (b *Buffer) Set(v float32, idx ...int) {
	b.Data[b.offset(idx)] = v
}

func (b *Buffer) offset(idx []int) int {
	if len(idx) != b.Shape.Rank() {
		panic(fmt.Sprintf("nn: index rank %d != shape %v", len(idx), b.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= b.Shape[i] {
			panic(fmt.Sprintf("nn: index %v out of range for %v", idx, b.Shape))
		}
		off = off*b.Shape[i] + x
	}
	return off
}

// RNG is a small deterministic generator (SplitMix64) so examples and
// tests are reproducible without seeding globals.
type RNG struct{ state uint64 }

// NewRNG returns a deterministic generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("nn: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Normal returns a standard normal sample (Box-Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillXavier initializes b with Xavier/Glorot scaling for a layer with
// the given fan-in and fan-out.
func FillXavier(b *Buffer, fanIn, fanOut int, r *RNG) {
	scale := math.Sqrt(2.0 / float64(fanIn+fanOut))
	for i := range b.Data {
		b.Data[i] = float32(r.Normal() * scale)
	}
}

// FillUniform initializes b uniformly in [-a, a].
func FillUniform(b *Buffer, a float64, r *RNG) {
	for i := range b.Data {
		b.Data[i] = float32((2*r.Float64() - 1) * a)
	}
}

// SplitAxis0 carves the buffer into pnum parts along axis 0, matching
// tensor.Split's front-loaded distribution. Parts are views copied out
// (callers own them).
func SplitAxis0(b *Buffer, pnum int) ([]*Buffer, error) {
	shapes, err := tensor.Split(b.Shape, 0, pnum)
	if err != nil {
		return nil, err
	}
	rowSize := 1
	for _, d := range b.Shape[1:] {
		rowSize *= d
	}
	parts := make([]*Buffer, pnum)
	off := 0
	for i, sh := range shapes {
		n := sh[0] * rowSize
		parts[i] = NewBufferFrom(sh, append([]float32(nil), b.Data[off:off+n]...))
		off += n
	}
	return parts, nil
}

// MergeAxis0 concatenates parts along axis 0 (inverse of SplitAxis0).
func MergeAxis0(parts []*Buffer) (*Buffer, error) {
	shapes := make([]tensor.Shape, len(parts))
	for i, p := range parts {
		shapes[i] = p.Shape
	}
	shape, err := tensor.Merge(shapes, 0)
	if err != nil {
		return nil, err
	}
	out := NewBuffer(shape)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out, nil
}

// SumInto accumulates src into dst element-wise (reduction merge).
func SumInto(dst, src *Buffer) {
	if !dst.Shape.Equal(src.Shape) {
		panic(fmt.Sprintf("nn: SumInto shape mismatch %v vs %v", dst.Shape, src.Shape))
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}
