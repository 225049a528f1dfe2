// Package stats provides deterministic randomness, counters, and histogram
// helpers shared by the simulator, generators, and experiment harness.
//
// Everything in this package is deliberately dependency-free and
// allocation-conscious: the simulator calls into these types on hot paths.
package stats

// Rand is a small, fast, deterministic pseudo-random generator
// (xorshift128+ variant). It is not safe for concurrent use; give each
// goroutine its own instance.
//
// We intentionally do not use math/rand here: simulations must be
// reproducible across Go releases, and math/rand's global source ordering
// has changed between versions.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a generator seeded from seed. Two generators with the
// same seed produce identical streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state. A zero seed is remapped so the state is
// never all-zero (which would be a fixed point for xorshift).
func (r *Rand) Seed(seed uint64) {
	// SplitMix64 expansion of the seed into 128 bits of state.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	r.s0 = z ^ (z >> 31)
	z = seed + 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	r.s1 = z ^ (z >> 31)
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
