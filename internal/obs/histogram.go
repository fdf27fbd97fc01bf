package obs

import (
	"sort"
	"sync"
)

// Histogram counts observations into fixed buckets. The fleet uses it for
// wall-clock job latency (seconds); it is safe for concurrent Observe calls
// from many workers.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // inclusive upper bounds, ascending
	counts []uint64  // len(bounds)+1; last bucket is overflow
	sum    float64
	n      uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// NewLatencyHistogram returns a histogram with a 1-2-5 decade ladder from
// 1 ms to 60 s, suiting experiment-job wall latencies.
func NewLatencyHistogram() *Histogram {
	return NewHistogram([]float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
		0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60,
	})
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramBucket is one snapshot row: the count of observations ≤ LE that
// fell above the previous bound. The overflow bucket is the final row with
// LE == -1 (observations above every bound).
type HistogramBucket struct {
	LE    float64 `json:"le"` // -1 marks the overflow bucket
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a consistent copy of the histogram state. Buckets
// holds only occupied buckets (compact for logs/JSON); Bounds holds the full
// bound ladder so Prometheus cumulative export can recover the empty
// buckets in between.
type HistogramSnapshot struct {
	Buckets []HistogramBucket `json:"buckets"`
	Bounds  []float64         `json:"bounds,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
}

// Snapshot copies the current state; empty buckets are elided.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.n, Sum: h.sum, Bounds: h.bounds}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := -1.0
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LE: le, Count: c})
	}
	return s
}
