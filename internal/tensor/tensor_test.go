package tensor

import (
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int64{Float32: 4, Float16: 2, Int32: 4, Int64: 8}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", dt, got, want)
		}
	}
}

func TestShapeBasics(t *testing.T) {
	s := NewShape(4, 3, 2)
	if s.Rank() != 3 {
		t.Fatalf("rank = %d", s.Rank())
	}
	if s.NumElements() != 24 {
		t.Fatalf("elements = %d", s.NumElements())
	}
	if s.Bytes(Float32) != 96 {
		t.Fatalf("bytes = %d", s.Bytes(Float32))
	}
	if s.String() != "[4 3 2]" {
		t.Fatalf("string = %q", s.String())
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 4 {
		t.Fatal("Clone aliases the original")
	}
	if !s.Equal(NewShape(4, 3, 2)) || s.Equal(NewShape(4, 3)) || s.Equal(NewShape(4, 3, 1)) {
		t.Fatal("Equal misbehaves")
	}
}

func TestNewShapeRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dim")
		}
	}()
	NewShape(4, 0)
}

func TestEmptyShape(t *testing.T) {
	var s Shape
	if s.NumElements() != 0 {
		t.Fatalf("empty shape elements = %d", s.NumElements())
	}
}

func TestKindProperties(t *testing.T) {
	if !FeatureMap.Evictable() || !Input.Evictable() {
		t.Error("feature maps and inputs are eviction candidates")
	}
	if Parameter.Evictable() || ParamGrad.Evictable() {
		t.Error("parameters are not eviction candidates")
	}
}

func TestSplitEven(t *testing.T) {
	parts, err := Split(NewShape(8, 3), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	for _, p := range parts {
		if !p.Equal(NewShape(2, 3)) {
			t.Fatalf("part = %v", p)
		}
	}
}

func TestSplitUneven(t *testing.T) {
	parts, err := Split(NewShape(7, 2), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 2} // front-loaded remainder
	total := 0
	for i, p := range parts {
		if p[0] != want[i] {
			t.Fatalf("part %d extent %d, want %d", i, p[0], want[i])
		}
		total += p[0]
	}
	if total != 7 {
		t.Fatalf("extents sum to %d", total)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(NewShape(4), 1, 2); err == nil {
		t.Error("axis out of range should fail")
	}
	if _, err := Split(NewShape(4), 0, 5); err == nil {
		t.Error("pnum > extent should fail")
	}
	if _, err := Split(NewShape(4), 0, 0); err == nil {
		t.Error("pnum 0 should fail")
	}
}

func TestMergeInverseOfSplit(t *testing.T) {
	s := NewShape(10, 4, 6)
	for axis := 0; axis < 3; axis++ {
		for pnum := 1; pnum <= s[axis]; pnum++ {
			parts, err := Split(s, axis, pnum)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Merge(parts, axis)
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(s) {
				t.Fatalf("axis %d pnum %d: merge(split) = %v", axis, pnum, back)
			}
		}
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(nil, 0); err == nil {
		t.Error("merging nothing should fail")
	}
	if _, err := Merge([]Shape{NewShape(2, 3), NewShape(2, 4)}, 0); err == nil {
		t.Error("mismatched non-merge extents should fail")
	}
	if _, err := Merge([]Shape{NewShape(2, 3), NewShape(2)}, 0); err == nil {
		t.Error("rank mismatch should fail")
	}
}

func TestMaxSplit(t *testing.T) {
	if MaxSplit(NewShape(5, 2), 0) != 5 || MaxSplit(NewShape(5, 2), 1) != 2 {
		t.Error("MaxSplit should return the extent")
	}
	if MaxSplit(NewShape(5), 3) != 0 {
		t.Error("out-of-range axis should return 0")
	}
}

// Property: splitting preserves total element count, for any valid
// (extent, pnum) pair.
func TestSplitPreservesElements(t *testing.T) {
	f := func(extent uint8, pn uint8, other uint8) bool {
		e := int(extent%200) + 1
		p := int(pn)%e + 1
		o := int(other%8) + 1
		s := NewShape(e, o)
		parts, err := Split(s, 0, p)
		if err != nil {
			return false
		}
		var total int64
		for _, part := range parts {
			total += part.NumElements()
		}
		return total == s.NumElements()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is the left inverse of Split on any axis.
func TestQuickMergeInverse(t *testing.T) {
	f := func(a, b uint8, axis bool, pn uint8) bool {
		d0, d1 := int(a%50)+1, int(b%50)+1
		s := NewShape(d0, d1)
		ax := 0
		if axis {
			ax = 1
		}
		p := int(pn)%s[ax] + 1
		parts, err := Split(s, ax, p)
		if err != nil {
			return false
		}
		back, err := Merge(parts, ax)
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
