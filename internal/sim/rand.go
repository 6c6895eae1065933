package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64star). The simulator cannot use math/rand's global state: every
// simulated run must be reproducible from a single seed regardless of what
// other code does, and the harness runs many simulations concurrently.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split derives an independent generator; used to give each simulated thread
// its own stream so that adding threads does not perturb existing ones.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1342543de82ef95)
}

// Zipf draws from a Zipf-like distribution over [0, n): rank r is sampled
// with probability proportional to 1/(r+1)^s. Workload generators use it to
// skew accesses toward hot keys, the standard way to dial contention.
type Zipf struct {
	rng *RNG
	cdf []float64
}

// NewZipf prepares a sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("sim: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf}
}

// Next returns the next sampled rank.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
