package sim

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Fatalf("clock at %v, want 8ms", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	c.Advance(-1)
}

func TestStopwatch(t *testing.T) {
	var c Clock
	sw := NewStopwatch(&c)
	c.Advance(time.Second)
	if sw.Elapsed() != time.Second {
		t.Fatalf("elapsed %v", sw.Elapsed())
	}
}

// TestAdvanceToChargesEachNanosecondOnce: goroutines racing to raise
// one clock to random targets are returned disjoint advances, so
// their sum is the final reading — the property that lets a composite
// charge each shared-clock advance to the one operation that applied
// it.
func TestAdvanceToChargesEachNanosecondOnce(t *testing.T) {
	const workers, raises = 8, 2000
	var c Clock
	if got := c.AdvanceTo(-time.Second); got != 0 {
		t.Fatalf("raise to a past target applied %v", got)
	}
	sums := make([]time.Duration, workers)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := NewRNG(uint64(w) + 1)
			for i := 0; i < raises; i++ {
				adv := c.AdvanceTo(time.Duration(rng.Intn(1 << 30)))
				if adv < 0 {
					t.Errorf("negative advance %v", adv)
				}
				sums[w] += adv
			}
		}(w)
	}
	wg.Wait()
	var total time.Duration
	for _, s := range sums {
		total += s
	}
	if total != c.Now() {
		t.Fatalf("advances sum to %v, clock reads %v", total, c.Now())
	}
	if got := c.AdvanceTo(c.Now()); got != 0 {
		t.Fatalf("raise to the current reading applied %v", got)
	}
	c.Advance(time.Second)
	if got := c.AdvanceTo(c.Now() + 5); got != 5 {
		t.Fatalf("raise by 5 ns applied %v", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %g", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// TestSkipNormFloat64MatchesDraws checks that skipping n variates
// leaves the generator exactly where n NormFloat64 calls leave it, over
// more than a million draws per seed.
func TestSkipNormFloat64MatchesDraws(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 7, 0xDEADBEEF} {
		a, b := NewRNG(seed), NewRNG(seed)
		total := 0
		for _, n := range []int{0, 1, 2, 3, 4736, 1 << 20} {
			for i := 0; i < n; i++ {
				a.NormFloat64()
			}
			b.SkipNormFloat64(n)
			total += n
			if a.state != b.state {
				t.Fatalf("seed %d: state diverged after %d draws", seed, total)
			}
		}
		if a.NormFloat64() != b.NormFloat64() {
			t.Fatalf("seed %d: next draw differs", seed)
		}
	}
}

// TestNormBound checks the bound at its extreme: the smallest accepted
// s, u = 2⁻⁵² and v = 0, yields the largest variate magnitude.
func TestNormBound(t *testing.T) {
	u := math.Ldexp(1, -52)
	s := u * u
	if got := u * sqrt(-2*ln(s)/s); got >= NormBound || got < NormBound-0.01 {
		t.Fatalf("extreme variate %g, bound %g", got, NormBound)
	}
	r := NewRNG(5)
	for i := 0; i < 1<<20; i++ {
		if v := r.NormFloat64(); math.Abs(v) >= NormBound {
			t.Fatalf("variate %g beyond bound", v)
		}
	}
}

// BenchmarkSkipNormFloat64 skips one standard block's worth of read-noise
// variates; BenchmarkNormFloat64Block draws them, for comparison.
func BenchmarkSkipNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.SkipNormFloat64(4736)
	}
}

func BenchmarkNormFloat64Block(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4736; j++ {
			r.NormFloat64()
		}
	}
}
