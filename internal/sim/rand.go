package sim

import "math"

// RNG is a small deterministic pseudo-random generator
// (xorshift64star). The repository avoids math/rand so that every
// stochastic component (read noise, workload arrivals, attack fuzzing)
// is seeded explicitly and reproducible across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal variate using the polar
// Box-Muller method. Used for analog read-signal noise.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrt(-2*ln(s)/s)
		}
	}
}

// NormBound bounds the magnitude of every NormFloat64 variate. Float64
// is a multiple of 2⁻⁵³, so each polar coordinate u, v is a multiple of
// 2⁻⁵² and an accepted s = u²+v² is at least 2⁻¹⁰⁴. Since |u| ≤ √s,
// |u·√(−2 ln s / s)| ≤ √(−2 ln s) ≤ √(208 ln 2) ≈ 12.007 < NormBound.
const NormBound = 12.01

// SkipNormFloat64 advances the generator exactly as n NormFloat64 calls
// would, making the same accept/reject decisions on the same draws but
// without computing the variates. A caller that can prove the variates
// cannot change its result (see NormBound) uses it to keep its position
// in the stream draw for draw at a fraction of the cost.
func (r *RNG) SkipNormFloat64(n int) {
	for ; n > 0; n-- {
		for {
			u := 2*r.Float64() - 1
			v := 2*r.Float64() - 1
			if s := u*u + v*v; s > 0 && s < 1 {
				break
			}
		}
	}
}

// Bool returns a pseudo-random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }
