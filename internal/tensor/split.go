package tensor

import "fmt"

// SplitDim identifies which logical dimension a split targets. The paper
// (Fig. 6) distinguishes splitting in the sample dimension (batch) from
// the parameter/attribute dimension (channels for CNNs, hidden size for
// Transformers). The planner searches over both.
type SplitDim int

const (
	// DimSample splits along the batch axis (axis 0 of activations).
	DimSample SplitDim = iota
	// DimParam splits along the parameter/attribute axis — the output
	// channel axis for convolutions, the hidden axis for dense layers.
	DimParam
)

// String names the split dimension as in the paper's figures.
func (d SplitDim) String() string {
	if d == DimSample {
		return "sample"
	}
	return "param"
}

// Split computes the shapes of the pnum micro-tensors obtained by
// splitting s along axis. Extents that do not divide evenly are
// distributed front-loaded: the first (extent mod pnum) parts get one
// extra element, matching how a contiguous buffer is carved in the
// runtime. It returns an error when the axis is out of range or the
// extent is smaller than pnum (a micro-tensor may not be empty).
func Split(s Shape, axis, pnum int) ([]Shape, error) {
	if pnum < 1 {
		return nil, fmt.Errorf("tensor: split count %d < 1", pnum)
	}
	if axis < 0 || axis >= len(s) {
		return nil, fmt.Errorf("tensor: split axis %d out of range for shape %v", axis, s)
	}
	extent := s[axis]
	if extent < pnum {
		return nil, fmt.Errorf("tensor: cannot split extent %d into %d parts", extent, pnum)
	}
	base, rem := extent/pnum, extent%pnum
	parts := make([]Shape, pnum)
	for i := range parts {
		p := s.Clone()
		p[axis] = base
		if i < rem {
			p[axis]++
		}
		parts[i] = p
	}
	return parts, nil
}

// Merge is the inverse of Split along the same axis: it concatenates the
// part shapes, validating that all non-split extents agree.
func Merge(parts []Shape, axis int) (Shape, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: merge of zero parts")
	}
	out := parts[0].Clone()
	if axis < 0 || axis >= len(out) {
		return nil, fmt.Errorf("tensor: merge axis %d out of range for shape %v", axis, out)
	}
	for _, p := range parts[1:] {
		if len(p) != len(out) {
			return nil, fmt.Errorf("tensor: merge rank mismatch %v vs %v", p, out)
		}
		for ax := range p {
			if ax == axis {
				continue
			}
			if p[ax] != out[ax] {
				return nil, fmt.Errorf("tensor: merge extent mismatch on axis %d: %v vs %v", ax, p, out)
			}
		}
		out[axis] += p[axis]
	}
	return out, nil
}

// MaxSplit returns the largest legal pnum for splitting s along axis —
// the extent itself — or 0 when axis is out of range.
func MaxSplit(s Shape, axis int) int {
	if axis < 0 || axis >= len(s) {
		return 0
	}
	return s[axis]
}
