package main

import (
	"math"
	"sort"
)

// quantiles returns the n-1 cut points that divide data into n groups of
// equal probability, by the "exclusive" method that Python's
// statistics.quantiles uses by default, so a spread computed here matches
// one computed from the same values with Python.
func quantiles(data []float64, n int) []float64 {
	if len(data) == 0 || n < 2 {
		return nil
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	out := make([]float64, n-1)
	ld := len(d)
	if ld == 1 {
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return out
}

// median returns the middle of data (the mean of the two middle values for
// an even count); 0 for no data.
func median(data []float64) float64 {
	q := quantiles(data, 2)
	if q == nil {
		return 0
	}
	return q[0]
}

// p90 returns the 90th percentile of data. It has at least ten samples
// beyond it only when len(data) >= 100.
func p90(data []float64) float64 {
	q := quantiles(data, 10)
	if q == nil {
		return 0
	}
	return q[8]
}

// spread returns the distance between the first and third quartiles of
// data as a share of its median: the run-to-run noise a bound must exceed.
func spread(data []float64) float64 {
	q := quantiles(data, 4)
	if q == nil || q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// geomean returns the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
