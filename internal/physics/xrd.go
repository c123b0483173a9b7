package physics

import (
	"fmt"
	"math"
	"slices"

	"sero/internal/sim"
)

// Kinematic X-ray diffraction simulator, reproducing Figs 8 and 9.
//
// Low-angle (2θ ≈ 2–14°) reflectivity is sensitive to the multilayer
// period: the Co/Pt superlattice produces a Bragg peak at
// 2θ ≈ 8° for Λ ≈ 1.1 nm with Cu Kα radiation. Interface mixing washes
// the superlattice modulation out, so the peak vanishes after a 700 °C
// anneal (Fig 8).
//
// High-angle diffraction (2θ ≈ 30–55°) is sensitive to crystal
// structure: the annealed film grows an fcc CoPt alloy whose (111)
// planes (d ≈ 0.216 nm) reflect at 2θ ≈ 41.7° (Fig 9); the as-grown
// film shows only broad background there.

// Diffractometer simulates a θ–2θ X-ray diffractometer.
type Diffractometer struct {
	// WavelengthNM is the X-ray wavelength; defaults to Cu Kα.
	WavelengthNM float64
	// StepDeg is the 2θ step between samples.
	StepDeg float64
	// CountNoise is the relative RMS noise applied to each intensity
	// sample (counting statistics).
	CountNoise float64

	rng *sim.RNG
}

// NewDiffractometer returns a Cu Kα diffractometer with 0.05° steps.
func NewDiffractometer(seed uint64) *Diffractometer {
	return &Diffractometer{
		WavelengthNM: CuKAlphaNM,
		StepDeg:      0.05,
		CountNoise:   0.02,
		rng:          sim.NewRNG(seed),
	}
}

// Pattern is a diffraction pattern: intensity (arbitrary units, log
// scale is conventional for low angle) versus 2θ in degrees.
type Pattern struct {
	// TwoThetaDeg holds the scan's diffraction angles 2θ in degrees,
	// ascending.
	TwoThetaDeg []float64
	// Intensity holds the measured intensity at each angle of
	// TwoThetaDeg.
	Intensity []float64
}

// Peak describes a local maximum found in a pattern.
type Peak struct {
	// TwoThetaDeg is the angle 2θ of the peak's maximum, in degrees.
	TwoThetaDeg float64
	// Intensity is the pattern's intensity at the maximum.
	Intensity float64
	// Prominence is the peak height over the local background.
	Prominence float64
}

// BraggAngleDeg returns the first-order 2θ (degrees) for spacing dNM at
// wavelength lambdaNM. Panics if the reflection is unphysical
// (λ > 2d).
func BraggAngleDeg(lambdaNM, dNM float64) float64 {
	s := lambdaNM / (2 * dNM)
	if s > 1 {
		panic(fmt.Sprintf("physics: no Bragg reflection for λ=%g d=%g", lambdaNM, dNM))
	}
	return 2 * math.Asin(s) * 180 / math.Pi
}

// ScanLowAngle sweeps 2θ over [2°, 14°], capturing the superlattice
// reflection of the multilayer period. The Fresnel-like reflectivity
// decay is modelled as a power-law background; the superlattice peak
// amplitude scales with the surviving interface contrast (1−mixing)².
func (d *Diffractometer) ScanLowAngle(sample *Multilayer) Pattern {
	return d.scan(sample, 2, 14)
}

// ScanHighAngle sweeps 2θ over [30°, 55°], capturing the fcc CoPt(111)
// alloy peak that appears after crystallisation.
func (d *Diffractometer) ScanHighAngle(sample *Multilayer) Pattern {
	return d.scan(sample, 30, 55)
}

func (d *Diffractometer) scan(sample *Multilayer, from, to float64) Pattern {
	if d.StepDeg <= 0 {
		panic("physics: non-positive diffractometer step")
	}
	var p Pattern
	for tt := from; tt <= to+1e-9; tt += d.StepDeg {
		i := d.intensityAt(sample, tt)
		if d.CountNoise > 0 {
			i *= 1 + d.CountNoise*d.rng.NormFloat64()
			if i < 0 {
				i = 0
			}
		}
		p.TwoThetaDeg = append(p.TwoThetaDeg, tt)
		p.Intensity = append(p.Intensity, i)
	}
	return p
}

// intensityAt computes the noiseless diffracted intensity at 2θ.
func (d *Diffractometer) intensityAt(sample *Multilayer, twoTheta float64) float64 {
	// Background: steep reflectivity decay at low angle, flat
	// instrument floor at high angle.
	bg := 1e6*math.Pow(twoTheta, -3.5) + 50

	// Superlattice peaks at orders n=1,2 of the bilayer period. The
	// structure-factor contrast between Co and Pt layers vanishes as
	// the interfaces mix: amplitude ∝ (1−mixing)².
	contrast := (1 - sample.Mixing())
	contrast *= contrast
	for order := 1; order <= 2; order++ {
		s := float64(order) * d.WavelengthNM / (2 * sample.PeriodNM)
		if s >= 1 {
			continue
		}
		centre := 2 * math.Asin(s) * 180 / math.Pi
		// Finite stack: peak width ~ 1/(N·Λ).
		width := 0.45 / float64(sample.Bilayers) * 10
		amp := 4e4 * contrast / float64(order*order)
		bg += amp * gaussian(twoTheta, centre, width)
	}

	// fcc CoPt (111) alloy peak grows with the crystallised fraction.
	if c := sample.Crystallised(); c > 0 {
		centre := BraggAngleDeg(d.WavelengthNM, CoPt111SpacingNM)
		bg += 2.5e3 * c * gaussian(twoTheta, centre, 0.6)
	}

	// Pt-rich as-deposited texture: a weak broad (111)-like hump from
	// the unmixed stack sits slightly below the alloy position (pure Pt
	// d111=0.2265 nm → 39.8°), present in both samples.
	centrePt := BraggAngleDeg(d.WavelengthNM, 0.2265)
	bg += 300 * gaussian(twoTheta, centrePt, 2.5)

	return bg
}

func gaussian(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-z * z / 2)
}

// FindPeak locates the most prominent local maximum of p within
// [fromDeg, toDeg]. The background is estimated as the linear
// interpolation between the window edges (median-smoothed), which is
// sufficient for the well-separated peaks in Figs 8 and 9. Returns
// ok=false when no sample exceeds the background by more than 3× the
// local scatter.
func FindPeak(p Pattern, fromDeg, toDeg float64) (Peak, bool) {
	var xs, ys []float64
	for i, tt := range p.TwoThetaDeg {
		if tt >= fromDeg && tt <= toDeg {
			xs = append(xs, tt)
			ys = append(ys, p.Intensity[i])
		}
	}
	if len(xs) < 5 {
		return Peak{}, false
	}
	edge := len(xs) / 10
	if edge < 2 {
		edge = 2
	}
	left := median(ys[:edge])
	right := median(ys[len(ys)-edge:])

	best := Peak{}
	found := false
	var edgeResiduals []float64
	for i := range xs {
		frac := (xs[i] - xs[0]) / (xs[len(xs)-1] - xs[0])
		bg := left + (right-left)*frac
		resid := ys[i] - bg
		if i < edge || i >= len(xs)-edge {
			edgeResiduals = append(edgeResiduals, resid)
		}
		if resid > best.Prominence {
			best = Peak{TwoThetaDeg: xs[i], Intensity: ys[i], Prominence: resid}
			found = true
		}
	}
	if !found {
		return Peak{}, false
	}
	// Significance: the prominence must exceed both 5× the edge
	// scatter (counting noise, estimated away from any central peak)
	// and 10 % of the local background level — a peak buried in the
	// background is not a detection.
	sc := mad(edgeResiduals)
	floor := 0.1 * (left + right) / 2
	if best.Prominence < 5*sc || best.Prominence < floor {
		return Peak{}, false
	}
	return best, true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := slices.Clone(v)
	slices.Sort(c)
	return c[len(c)/2]
}

// mad returns the median absolute deviation of v.
func mad(v []float64) float64 {
	m := median(v)
	dev := make([]float64, len(v))
	for i, x := range v {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// Fig8Result holds the two low-angle scans of Fig 8.
type Fig8Result struct {
	// AsGrown is the low-angle scan of the as-grown multilayer.
	AsGrown Pattern
	// Annealed is the low-angle scan of the 700 °C-annealed sample.
	Annealed Pattern
	// AsGrownPeak is the superlattice peak found in the as-grown scan.
	AsGrownPeak Peak
	// AnnealedPeakPresent reports whether any significant peak
	// survives in the annealed scan (the paper finds none).
	AnnealedPeakPresent bool
}

// RunFig8 prepares an as-grown sample and a 700 °C-annealed sample and
// scans both at low angle.
func RunFig8(seed uint64) Fig8Result {
	d := NewDiffractometer(seed)
	asGrown := DefaultSample()
	annealed := DefaultSample()
	annealed.ConventionalAnneal(700)

	res := Fig8Result{
		AsGrown:  d.ScanLowAngle(asGrown),
		Annealed: d.ScanLowAngle(annealed),
	}
	if pk, ok := FindPeak(res.AsGrown, 6, 10); ok {
		res.AsGrownPeak = pk
	}
	_, res.AnnealedPeakPresent = FindPeak(res.Annealed, 6, 10)
	return res
}

// Fig9Result holds the two high-angle scans of Fig 9.
type Fig9Result struct {
	// AsGrown is the high-angle scan of the as-grown multilayer.
	AsGrown Pattern
	// Annealed is the high-angle scan of the 700 °C-annealed sample.
	Annealed Pattern
	// AnnealedPeak is the CoPt(111) peak in the annealed scan.
	AnnealedPeak Peak
	// AsGrownPeakPresent reports whether the as-grown film shows a
	// significant (111) alloy peak (it must not).
	AsGrownPeakPresent bool
}

// RunFig9 prepares the same two samples as Fig 8 and scans at high
// angle, looking for the 41.7° CoPt(111) reflection.
func RunFig9(seed uint64) Fig9Result {
	d := NewDiffractometer(seed)
	asGrown := DefaultSample()
	annealed := DefaultSample()
	annealed.ConventionalAnneal(700)

	res := Fig9Result{
		AsGrown:  d.ScanHighAngle(asGrown),
		Annealed: d.ScanHighAngle(annealed),
	}
	if pk, ok := FindPeak(res.Annealed, 40.5, 43); ok {
		res.AnnealedPeak = pk
	}
	_, res.AsGrownPeakPresent = FindPeak(res.AsGrown, 40.5, 43)
	return res
}
