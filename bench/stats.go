package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the value is one or two outliers.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// samples: the smallest sample with at least p% of the samples at or below
// it. It is an order statistic of the raw samples, never an interpolation.
// It refuses when fewer than minTail samples lie beyond the rank.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	n := len(samples)
	// The epsilon keeps float rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing the rank up by one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the three cut points of the samples the way Python's
// statistics.quantiles(data, n=4) computes them (the "exclusive" method),
// so spreads computed here and by external tooling agree. It needs at least
// two samples.
func quartiles(samples []float64) [3]float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// median is the middle sample (the mean of the middle two for an even
// count).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a bound has to exceed.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return math.Inf(1)
	}
	q := quartiles(samples)
	return (q[2] - q[0]) / math.Abs(q[1])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
