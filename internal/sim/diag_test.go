package sim

import "testing"

func TestRecomputeStrategyNames(t *testing.T) {
	names := map[RecomputeStrategy]string{
		MemoryCentric: "memory-centric",
		SpeedCentric:  "speed-centric",
		LRURecompute:  "lru",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}
