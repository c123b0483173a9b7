package sim

import (
	"math"
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

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("exponential mean %g, want ~5", mean)
	}
}
