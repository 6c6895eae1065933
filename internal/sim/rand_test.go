package sim

import "testing"

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero (xorshift fixed point)")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10_000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	child := parent.Split()
	// Draw from the child; the parent's subsequent stream must match a
	// parent that split without drawing.
	for i := 0; i < 10; i++ {
		child.Uint64()
	}
	p2 := NewRNG(5)
	p2.Split()
	for i := 0; i < 100; i++ {
		if parent.Uint64() != p2.Uint64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(11)
	z := NewZipf(rng, 1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 50_000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50]*5 {
		t.Fatalf("no skew: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Every rank remains reachable in principle; at least the head ranks
	// must all have been drawn.
	for r := 0; r < 5; r++ {
		if counts[r] == 0 {
			t.Fatalf("head rank %d never drawn", r)
		}
	}
}

func TestZipfDeterminism(t *testing.T) {
	a := NewZipf(NewRNG(3), 0.9, 40)
	b := NewZipf(NewRNG(3), 0.9, 40)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("zipf streams diverged for equal seeds")
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(NewRNG(1), 1, 0)
}
