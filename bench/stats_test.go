package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are what Python's statistics.quantiles returns for
// the same data, since the benchmark's spreads are checked with it.
func TestQuantilesMatchPython(t *testing.T) {
	oneToTen := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quantiles(oneToTen, 4)[i]; !near(got, want) {
			t.Errorf("quartile %d of 1..10 = %v, want %v", i+1, got, want)
		}
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := p90(hundred); !near(got, 90.9) {
		t.Errorf("p90 of 1..100 = %v, want 90.9", got)
	}
	if got := quantiles([]float64{3, 1, 2}, 4); !near(got[0], 1) || !near(got[2], 3) {
		t.Errorf("quartiles of 3 values = %v, want [1 2 3]", got)
	}
	if got := median([]float64{0.5, 0.7}); !near(got, 0.6) {
		t.Errorf("median of two = %v, want 0.6", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v, want 4", got)
	}
	if median(nil) != 0 || quantiles(nil, 4) != nil {
		t.Error("no data should give no quantiles and a zero median")
	}
}

func TestSpreadAndGeomean(t *testing.T) {
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 5.5/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := spread([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("spread of constant data = %v, want 0", got)
	}
	if got := geomean([]float64{1, 4, 16, 0}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4 (zeros skipped)", got)
	}
}

func TestScaledUsesNeighbourMedian(t *testing.T) {
	walls := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	scales := []float64{1, 1, 1, 1, 3, 1, 1, 1, 1, 0.5} // one noisy sample each way
	for i, got := range scaled(walls, scales) {
		if got != 1 {
			t.Errorf("pass %d scaled to %v, want 1: a lone kernel sample must not move it", i, got)
		}
	}
	if got := scaled([]float64{2, 2, 2}, []float64{0.5, 0.5, 0.5}); got[1] != 1 {
		t.Errorf("steady scale 0.5 gave %v, want 1", got[1])
	}
}
