package main

import (
	"os"
	"testing"
)

func TestBucketTopFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := bucketTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":      0.20,
		"cpu":      0.15,
		"runtime":  0.10 + 0.05 + 0.04, // asyncPreempt, internal/runtime/maps, gcWriteBarrier
		"json":     0.10,
		"lineset":  0.08 + 0.07, // "(inline)" suffix and a generic receiver
		"os":       0.05 + 0.03, // internal/runtime/syscall and os
		"runstore": 0.04,
		"other":    0.03 + 0.03 + 0.03, // isa (no bucket of its own), fmt, main
	}
	total := 0.0
	for _, b := range profBuckets {
		got, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		if !near(got, want[b]) {
			t.Errorf("bucket %s = %v, want %v", b, got, want[b])
		}
		total += got
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if len(shares) != len(profBuckets) {
		t.Errorf("got %d buckets, want %d", len(shares), len(profBuckets))
	}
}

func TestBucketTopRejectsOtherText(t *testing.T) {
	if _, err := bucketTop([]byte("no profile here\n")); err == nil {
		t.Error("text without a flat/flat% table was accepted")
	}
}
