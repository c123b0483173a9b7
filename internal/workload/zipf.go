package workload

import (
	"fmt"
	"math"

	"sero/internal/sim"
)

// Zipfian samples file indices in [0, n) with a skewed popularity
// distribution: index i is the (i+1)-th most popular item, with
// probability proportional to 1/(i+1)^theta. It implements the
// constant-time method of Gray et al. ("Quickly generating
// billion-record synthetic databases", SIGMOD '94) — the same sampler
// YCSB popularised for serving benchmarks — on top of the repository's
// deterministic RNG, so two sessions seeded identically draw identical
// index streams. theta = 0 degenerates to the uniform distribution;
// the classic serving mix uses theta ≈ 0.9–0.99.
type Zipfian struct {
	n     int
	theta float64
	// Precomputed Gray constants: alpha = 1/(1-theta), zetan =
	// zeta(n, theta), eta per the paper. Unused when theta is 0.
	alpha, zetan, eta float64
}

// NewZipfian builds a sampler over [0, n). It panics unless n is
// positive and theta is in [0, 1) — the Gray method diverges at
// theta = 1.
func NewZipfian(n int, theta float64) *Zipfian {
	if n <= 0 || theta < 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: bad Zipfian n=%d theta=%g", n, theta))
	}
	z := &Zipfian{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	z.alpha = 1 / (1 - theta)
	z.zetan = zeta(n, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// O(n), paid once per sampler.
func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next index. Exactly one rng draw per call, so
// generators mixing zipfian picks with other draws stay deterministic.
func (z *Zipfian) Next(rng *sim.RNG) int {
	if z.theta == 0 {
		return rng.Intn(z.n)
	}
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}
