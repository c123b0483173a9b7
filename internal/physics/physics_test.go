package physics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAsGrownAnisotropy(t *testing.T) {
	s := DefaultSample()
	k := s.PerpendicularAnisotropy()
	if k != AsGrownAnisotropy {
		t.Fatalf("as-grown K = %g, want %g", k, AsGrownAnisotropy)
	}
	if s.EasyAxisOrientation() != EasyPerpendicular {
		t.Fatal("as-grown film must be perpendicular")
	}
	if !s.SupportsRecording() {
		t.Fatal("as-grown film must support recording")
	}
}

func TestAnnealBelowOnsetPreservesK(t *testing.T) {
	// Paper: "This value is maintained up to an annealing temperature
	// of 500 °C."
	for _, temp := range []float64{100, 300, 400, 500} {
		s := DefaultSample()
		s.ConventionalAnneal(temp)
		k := s.PerpendicularAnisotropy()
		if k < 0.9*AsGrownAnisotropy {
			t.Fatalf("anneal at %g °C dropped K to %g", temp, k)
		}
		if !s.SupportsRecording() {
			t.Fatalf("anneal at %g °C destroyed recording", temp)
		}
	}
}

func TestAnnealAboveCollapseDestroysK(t *testing.T) {
	// Paper: "Above 600 °C the value of K drops dramatically."
	for _, temp := range []float64{650, 700, 800} {
		s := DefaultSample()
		s.ConventionalAnneal(temp)
		k := s.PerpendicularAnisotropy()
		if k > 0.2*AsGrownAnisotropy {
			t.Fatalf("anneal at %g °C left K at %g", temp, k)
		}
		if s.SupportsRecording() {
			t.Fatalf("anneal at %g °C left film recordable", temp)
		}
	}
}

func TestAnnealIrreversible(t *testing.T) {
	s := DefaultSample()
	s.ConventionalAnneal(700)
	mixed := s.Mixing()
	// "After heat treatment, the interfaces cannot be restored": a
	// later low-temperature anneal must not reduce mixing.
	s.ConventionalAnneal(100)
	if s.Mixing() < mixed {
		t.Fatal("mixing decreased after low-temperature anneal")
	}
}

func TestMixingMonotoneInTemperature(t *testing.T) {
	f := func(a, b uint16) bool {
		t1 := float64(a%900) + 20
		t2 := float64(b%900) + 20
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		s1, s2 := DefaultSample(), DefaultSample()
		s1.ConventionalAnneal(t1)
		s2.ConventionalAnneal(t2)
		return s1.Mixing() <= s2.Mixing()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMixingAccumulates(t *testing.T) {
	// Two sub-τ anneals accumulate toward equilibrium (τ(600 °C) is
	// ~1.3 ms; use spikes well below it).
	s := DefaultSample()
	s.AnnealAt(600, 0.0005)
	m1 := s.Mixing()
	if m1 == 0 {
		t.Fatal("first spike mixed nothing — test is vacuous")
	}
	s.AnnealAt(600, 0.0005)
	if s.Mixing() <= m1 {
		t.Fatal("repeated anneal did not accumulate mixing")
	}
}

func TestRoomTemperatureStable(t *testing.T) {
	s := DefaultSample()
	// Ten years at 25 °C must not destroy the medium (data-retention).
	s.AnnealAt(25, 10*365*24*3600)
	if s.PerpendicularAnisotropy() < 0.99*AsGrownAnisotropy {
		t.Fatalf("room-temperature decade dropped K to %g", s.PerpendicularAnisotropy())
	}
}

func TestCrystallisationOnlyAtHighT(t *testing.T) {
	low := DefaultSample()
	low.ConventionalAnneal(500)
	if low.Crystallised() != 0 {
		t.Fatalf("crystallised %g at 500 °C", low.Crystallised())
	}
	high := DefaultSample()
	high.ConventionalAnneal(700)
	if high.Crystallised() < 0.5 {
		t.Fatalf("crystallised only %g at 700 °C", high.Crystallised())
	}
	if high.EasyAxisOrientation() != EasyTilted {
		t.Fatalf("700 °C film axis %v, want tilted", high.EasyAxisOrientation())
	}
	// Crucially: tilted is NOT perpendicular — heating cannot be
	// undone by crystallisation (paper §7).
	if high.SupportsRecording() {
		t.Fatal("crystallised film must not support recording")
	}
}

func TestEasyAxisStrings(t *testing.T) {
	if EasyPerpendicular.String() != "perpendicular" ||
		EasyInPlane.String() != "in-plane" ||
		EasyTilted.String() != "tilted" {
		t.Fatal("axis names")
	}
}

func TestNewMultilayerPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMultilayer(0, 1) },
		func() { NewMultilayer(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewMultilayer did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNegativeAnnealDurationPanics(t *testing.T) {
	s := DefaultSample()
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	s.AnnealAt(500, -1)
}

func TestHistoryRecorded(t *testing.T) {
	s := DefaultSample()
	s.ConventionalAnneal(300)
	s.ConventionalAnneal(700)
	h := s.History()
	if len(h) != 2 || h[0].TemperatureC != 300 || h[1].TemperatureC != 700 {
		t.Fatalf("history %v", h)
	}
}

func TestTorqueExtractionAccuracy(t *testing.T) {
	// Noiseless pipeline must recover K to better than 1 %.
	mm := NewMagnetometer(1)
	mm.NoiseJm3 = 0
	s := DefaultSample()
	k := mm.MeasureAnisotropy(s)
	if math.Abs(k-AsGrownAnisotropy) > 0.01*AsGrownAnisotropy {
		t.Fatalf("extracted K %g, want %g", k, AsGrownAnisotropy)
	}
}

func TestTorqueExtractionRejectsFourfold(t *testing.T) {
	// The sin4θ contamination must not leak into the sin2θ projection.
	mm := NewMagnetometer(1)
	mm.NoiseJm3 = 0
	curve := mm.Measure(DefaultSample())
	var acc float64
	for i := range curve.AnglesRad {
		acc += curve.TorquePerVolume[i] * math.Sin(4*curve.AnglesRad[i])
	}
	k4 := -2 * acc / float64(len(curve.AnglesRad))
	if math.Abs(k4) < 100 {
		t.Fatal("fourfold term missing from synthetic curve — test is vacuous")
	}
	k := ExtractAnisotropy(curve) + ShapeAnisotropy
	if math.Abs(k-AsGrownAnisotropy) > 0.01*AsGrownAnisotropy {
		t.Fatalf("fourfold leaked: K = %g", k)
	}
}

func TestTorqueNoisyExtraction(t *testing.T) {
	mm := NewMagnetometer(5)
	s := DefaultSample()
	k := mm.MeasureAnisotropy(s)
	if math.Abs(k-AsGrownAnisotropy) > 0.05*AsGrownAnisotropy {
		t.Fatalf("noisy extraction off by >5%%: %g", k)
	}
}

func TestExtractAnisotropyPanicsOnMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed curve did not panic")
		}
	}()
	ExtractAnisotropy(TorqueCurve{AnglesRad: []float64{1}, TorquePerVolume: nil})
}

func TestRunFig7Shape(t *testing.T) {
	pts := RunFig7(42)
	if len(pts) != 6 {
		t.Fatalf("%d points, want 6", len(pts))
	}
	asGrown := pts[0].AnisotropyJm3
	if math.Abs(asGrown-AsGrownAnisotropy) > 0.05*AsGrownAnisotropy {
		t.Fatalf("as-grown point %g", asGrown)
	}
	// Flat to 500 °C.
	for _, p := range pts[1:4] {
		if math.Abs(p.AnisotropyJm3-asGrown) > 0.15*asGrown {
			t.Fatalf("K at %g °C = %g, expected ~flat", p.TemperatureC, p.AnisotropyJm3)
		}
	}
	// Collapse at 700 °C.
	last := pts[5]
	if last.TemperatureC != 700 {
		t.Fatalf("last point at %g", last.TemperatureC)
	}
	if last.AnisotropyJm3 > 0.2*asGrown {
		t.Fatalf("K at 700 °C = %g, expected collapse", last.AnisotropyJm3)
	}
	// Monotone decline from 500 on.
	if !(pts[3].AnisotropyJm3 >= pts[4].AnisotropyJm3 && pts[4].AnisotropyJm3 >= pts[5].AnisotropyJm3) {
		t.Fatal("K not declining above 500 °C")
	}
}

func TestBraggAngleKnownValues(t *testing.T) {
	// Superlattice: Λ=1.104 nm → 2θ ≈ 8°.
	got := BraggAngleDeg(CuKAlphaNM, BilayerPeriodNM)
	if math.Abs(got-8.0) > 0.3 {
		t.Fatalf("superlattice angle %g, want ≈8", got)
	}
	// CoPt(111): d=0.2163 nm → 2θ ≈ 41.7°.
	got = BraggAngleDeg(CuKAlphaNM, CoPt111SpacingNM)
	if math.Abs(got-41.7) > 0.2 {
		t.Fatalf("CoPt(111) angle %g, want ≈41.7", got)
	}
}

func TestBraggAnglePanicsUnphysical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unphysical reflection did not panic")
		}
	}()
	BraggAngleDeg(0.154, 0.05)
}

func TestRunFig8(t *testing.T) {
	res := RunFig8(42)
	if res.AsGrownPeak.TwoThetaDeg < 7 || res.AsGrownPeak.TwoThetaDeg > 9 {
		t.Fatalf("as-grown superlattice peak at %g°, want ≈8°", res.AsGrownPeak.TwoThetaDeg)
	}
	if res.AnnealedPeakPresent {
		t.Fatal("superlattice peak survived the 700 °C anneal")
	}
	if len(res.AsGrown.TwoThetaDeg) == 0 || len(res.Annealed.TwoThetaDeg) == 0 {
		t.Fatal("empty patterns")
	}
}

func TestRunFig9(t *testing.T) {
	res := RunFig9(42)
	if res.AnnealedPeak.TwoThetaDeg < 41.2 || res.AnnealedPeak.TwoThetaDeg > 42.2 {
		t.Fatalf("annealed CoPt(111) peak at %g°, want ≈41.7°", res.AnnealedPeak.TwoThetaDeg)
	}
	if res.AsGrownPeakPresent {
		t.Fatal("as-grown film shows an alloy peak")
	}
}

func TestFindPeakTooFewSamples(t *testing.T) {
	p := Pattern{TwoThetaDeg: []float64{1, 2}, Intensity: []float64{1, 2}}
	if _, ok := FindPeak(p, 0, 3); ok {
		t.Fatal("peak found in 2 samples")
	}
}

func TestScansDeterministicPerSeed(t *testing.T) {
	a := RunFig8(9)
	b := RunFig8(9)
	for i := range a.AsGrown.Intensity {
		if a.AsGrown.Intensity[i] != b.AsGrown.Intensity[i] {
			t.Fatal("same seed produced different scans")
		}
	}
}

func TestMagnetometerZeroPointsPanics(t *testing.T) {
	mm := NewMagnetometer(1)
	mm.Points = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero-point magnetometer did not panic")
		}
	}()
	mm.Measure(DefaultSample())
}

func TestAnnealTimeDependence(t *testing.T) {
	// At the same temperature, a longer anneal mixes at least as much;
	// a spike shorter than the relaxation time mixes less than the
	// full hour (the kinetics are time-dependent, not a step
	// function). τ(620 °C) ≈ 0.9 ms, so a 0.3 ms spike is sub-τ.
	short := DefaultSample()
	short.AnnealAt(620, 0.0003)
	long := DefaultSample()
	long.AnnealAt(620, 3600)
	if short.Mixing() >= long.Mixing() {
		t.Fatalf("0.05s at 620°C mixed %g, full hour %g", short.Mixing(), long.Mixing())
	}
}

func TestLocalHeatingPulseDestroys(t *testing.T) {
	// The device's ewb is a brief current pulse, not an hour in an
	// oven: a millisecond well above the collapse temperature must be
	// enough to destroy the multilayer (mixing time constant is
	// sub-millisecond at probe-heating temperatures).
	s := DefaultSample()
	s.AnnealAt(900, 0.001)
	if s.SupportsRecording() {
		t.Fatalf("1ms at 900°C left film recordable (K=%g)", s.PerpendicularAnisotropy())
	}
}

func TestMixingTimeConstantDecreasesWithT(t *testing.T) {
	if mixingTimeConstant(500) <= mixingTimeConstant(700) {
		t.Fatal("relaxation not faster at higher temperature")
	}
}

// pulseDamageInline is PulseDamage as one expression per step, the
// form it had before Pulse factored the per-temperature constants out.
func pulseDamageInline(tempC, seconds, current float64) float64 {
	if seconds <= 0 {
		return current
	}
	eq := mixingEquilibrium(tempC)
	tau := mixingTimeConstant(tempC)
	frac := 1 - math.Exp(-seconds/tau)
	next := current + (eq-current)*frac
	if next < current {
		return current
	}
	if next > 1 {
		return 1
	}
	return next
}

// TestPulseMatchesInlineFormula pins PulseDamage, and the Pulse a medium
// builds once per temperature, to the inline formula bit for bit across
// temperatures from below absolute zero to 1200 °C, durations from
// none to an hour and damage from pristine to fully mixed.
func TestPulseMatchesInlineFormula(t *testing.T) {
	for _, temp := range []float64{-300, 0, 25, 360, 500, 550, 595, 600, 650, 700, 900, 1200} {
		for _, secs := range []float64{-1, 0, 1e-9, 20e-6, 50e-6, 1e-3, 10, 3600} {
			p := NewPulse(temp, secs)
			for _, cur := range []float64{0, 0.1, 0.3, HeatedDamageThreshold - 1e-6, HeatedDamageThreshold, 0.99, 1} {
				want := math.Float64bits(pulseDamageInline(temp, secs, cur))
				if got := math.Float64bits(PulseDamage(temp, secs, cur)); got != want {
					t.Fatalf("PulseDamage(%g, %g, %g) bits %x, inline %x", temp, secs, cur, got, want)
				}
				if got := math.Float64bits(p.Damage(cur)); got != want {
					t.Fatalf("NewPulse(%g, %g).Damage(%g) bits %x, inline %x", temp, secs, cur, got, want)
				}
			}
		}
	}
}
