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

func TestQuantileEmpty(t *testing.T) {
	s := NewHistogram([]float64{1, 2}).Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
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
	approx(t, "mean", s.Mean(), 5.565/5)
	// Interpolated: target rank 2.5 lands halfway through the (0.01, 0.1]
	// bucket, so p50 = 0.01 + 0.5·(0.1−0.01).
	approx(t, "p50", s.Quantile(0.5), 0.055)
	if q := s.Quantile(1); q != -1 {
		t.Errorf("p100 = %v, want -1 (overflow)", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewLatencyHistogram().Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || len(s.Buckets) != 0 {
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

// q ≤ 0 pins to the lower edge of the first occupied bucket: 0 when that is
// the first bucket, the previous bound otherwise.
func TestQuantileLowerEdge(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	h.Observe(5)
	approx(t, "p0 first bucket", h.Snapshot().Quantile(0), 0)
	approx(t, "p0 negative q", h.Snapshot().Quantile(-0.5), 0)

	h2 := NewHistogram([]float64{10, 20, 30})
	h2.Observe(25) // only the (20,30] bucket is occupied
	approx(t, "p0 interior bucket", h2.Snapshot().Quantile(0), 20)
}

// q ≥ 1 pins to the last occupied bucket's upper bound — or -1 (no honest
// finite estimate) when the overflow bucket is occupied.
func TestQuantileUpperEdge(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(5)
	h.Observe(15)
	approx(t, "p100", h.Snapshot().Quantile(1), 20)
	approx(t, "q>1", h.Snapshot().Quantile(1.5), 20)

	h.Observe(99) // overflow occupied
	approx(t, "p100 with overflow", h.Snapshot().Quantile(1), -1)
	// An interior rank landing in the overflow bucket is also -1.
	approx(t, "p99 in overflow", h.Snapshot().Quantile(0.99), -1)
}

func TestQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	for _, v := range []float64{11, 12, 13, 14} {
		h.Observe(v)
	}
	// target rank 2 of 4, all in (10,20]: 10 + 2/4·10 = 15.
	approx(t, "p50 uniform", h.Snapshot().Quantile(0.5), 15)
	// target rank 1: 10 + 1/4·10 = 12.5.
	approx(t, "p25 uniform", h.Snapshot().Quantile(0.25), 12.5)
}

// A single sample interpolates across its bucket (lo + q·(hi−lo)) — the
// histogram no longer knows the sample's value, only its bucket.
func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(17)
	s := h.Snapshot()
	approx(t, "single p50", s.Quantile(0.5), 15)
	approx(t, "single p10", s.Quantile(0.1), 11)
	approx(t, "single p0", s.Quantile(0), 10)
	approx(t, "single p100", s.Quantile(1), 20)
}

// Snapshots without Bounds (old persisted JSON) fall back to the previous
// occupied bucket's bound as the lower edge.
func TestQuantileNoBoundsFallback(t *testing.T) {
	s := HistogramSnapshot{
		Buckets: []HistogramBucket{{LE: 10, Count: 2}, {LE: 30, Count: 2}},
		Count:   4,
	}
	// Rank 3 lands in the (10,30] bucket: 10 + 1/2·20 = 20.
	approx(t, "fallback p75", s.Quantile(0.75), 20)
	approx(t, "fallback p0", s.Quantile(0), 0)
}

func TestHistogramPanicsOnUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unsorted bounds accepted")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestSnapshotMeanAndString(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(0.5)
	h.Observe(1.5)
	s := h.Snapshot()
	approx(t, "mean", s.Mean(), 1)
	if s.String() == "" {
		t.Error("String() empty")
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Error("empty mean != 0")
	}
}
