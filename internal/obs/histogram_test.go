package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketsAndStats: observations land in the first bucket whose
// bound they do not exceed (bounds are inclusive), values past the last
// bound land only in +Inf, and the buckets are cumulative, with sum and
// count covering every observation.
func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram([]float64{0.25, 1, 4})
	for _, v := range []float64{0.125, 0.25, 0.5, 2, 8} {
		h.Observe(v)
	}
	got := expose(t, func(e *Exposition) { e.Histogram("lat", "Latency.", h) })
	want := `# HELP lat Latency.
# TYPE lat histogram
lat_bucket{le="0.25"} 2
lat_bucket{le="1"} 3
lat_bucket{le="4"} 4
lat_bucket{le="+Inf"} 5
lat_sum 10.875
lat_count 5
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramEmpty: an empty histogram still writes its whole bucket
// ladder, every bucket 0.
func TestHistogramEmpty(t *testing.T) {
	got := expose(t, func(e *Exposition) { e.Histogram("lat", "Latency.", NewLatencyHistogram()) })
	if n := strings.Count(got, "_bucket{"); n != 16 {
		t.Errorf("%d buckets, want 15 bounds and +Inf:\n%s", n, got)
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, " 0") {
			t.Errorf("empty histogram line %q is not 0", line)
		}
	}
}

// TestHistogramConcurrentObserve: workers observe while a scraper writes the
// histogram, as the fleet's pullers do under a live /metrics; run under
// -race. Every observation is counted once.
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
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := NewExposition(io.Discard)
			e.Histogram("lat", "Latency.", h)
			if err := e.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	got := expose(t, func(e *Exposition) { e.Histogram("lat", "Latency.", h) })
	for _, want := range []string{"lat_bucket{le=\"0.002\"} 2000\n", "lat_bucket{le=\"0.01\"} 8000\n", "lat_count 8000\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
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
