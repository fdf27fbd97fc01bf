package obs

import (
	"sort"
	"sync"
)

// Histogram counts observations into fixed buckets. The fleet uses it for
// wall-clock job latency and the store for fsync latency (seconds); it is
// safe for concurrent Observe calls from many workers, and an Exposition
// reads it straight from its buckets.
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
