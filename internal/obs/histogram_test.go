package obs

import (
	"math"
	"sync"
	"testing"
)

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestHistogramBucketsAndStats: observations land in the first bucket whose
// bound they do not exceed (bounds are inclusive), values past the last
// bound land in the overflow bucket reported as LE -1, and the snapshot's
// count and sum cover every observation.
func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	approx(t, "sum", s.Sum, 5.565)
	want := map[float64]uint64{0.01: 2, 0.1: 1, 1: 1, -1: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.LE] != b.Count {
			t.Errorf("bucket ≤%g = %d, want %d", b.LE, b.Count, want[b.LE])
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewLatencyHistogram().Snapshot()
	if s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot not empty: %+v", s)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w+1) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewHistogram([]float64{2, 1})
}
