// Package physics models the material science of the paper's Co/Pt
// multilayer patterned medium: interface anisotropy, annealing-driven
// interface mixing, torque magnetometry (the measurement behind Fig 7)
// and kinematic X-ray diffraction (Figs 8 and 9).
//
// The paper's samples are stacks of alternating ~0.6 nm Co and Pt
// films. The Co/Pt interfaces contribute a perpendicular anisotropy
// that dominates the in-plane shape anisotropy of a flat dot. Heating
// mixes the interfaces irreversibly; above ~600 °C the perpendicular
// anisotropy collapses and the easy axis rotates in-plane — the
// physical basis of the electrical write-once operation.
package physics

import (
	"fmt"
	"math"
)

// Physical constants and default sample parameters. Values follow the
// paper and its references [46, 53].
const (
	// AsGrownAnisotropy is the perpendicular anisotropy of the
	// unannealed film, 80 kJ/m^3 (paper §7).
	AsGrownAnisotropy = 80e3 // J/m^3

	// MixingOnsetCelsius is the annealing temperature above which the
	// Co/Pt interfaces begin to mix for this film. The paper finds K
	// maintained up to 500 °C.
	MixingOnsetCelsius = 500.0

	// CollapseCelsius is the temperature above which K "drops
	// dramatically" (paper: above 600 °C).
	CollapseCelsius = 600.0

	// BilayerPeriodNM is the Co+Pt bilayer period Λ. The paper derives
	// ~0.6 nm per layer from the low-angle XRD peak at 2θ≈8°, i.e. a
	// bilayer of ~1.1 nm.
	BilayerPeriodNM = 1.104

	// CuKAlphaNM is the Cu Kα X-ray wavelength used by the XRD
	// simulator.
	CuKAlphaNM = 0.15406

	// CoPt111SpacingNM is the (111) plane spacing of the fcc CoPt
	// alloy that crystallises after a 700 °C anneal; it produces the
	// high-angle peak at 2θ≈41.7° (paper §7, Fig 9).
	CoPt111SpacingNM = 0.2163

	// AppliedFieldKAm is the torque magnetometer applied field,
	// 1350 kA/m (paper §7).
	AppliedFieldKAm = 1350.0
)

// Multilayer is a simulated Co/Pt multilayer film sample. The zero
// value is not useful; construct with NewMultilayer.
type Multilayer struct {
	// Bilayers is the number of Co/Pt bilayer repeats in the stack
	// ("tens of layers, each thinner than 1 nm", paper §2).
	Bilayers int

	// PeriodNM is the bilayer period Λ in nanometres.
	PeriodNM float64

	// mixing in [0,1]: 0 = perfect interfaces (as grown),
	// 1 = completely interdiffused. Monotone non-decreasing; annealing
	// can only increase it (irreversibility, paper §7).
	mixing float64

	// crystallised in [0,1]: fraction of the film converted to the fcc
	// CoPt alloy phase with (111) texture. Grows only at high anneal
	// temperatures (the 41.7° peak of Fig 9).
	crystallised float64

	// annealHistory records every anneal applied, for provenance.
	annealHistory []Anneal
}

// Anneal describes one heat treatment.
type Anneal struct {
	// TemperatureC is the anneal temperature in °C.
	TemperatureC float64
	Duration     float64 // seconds at temperature
}

// NewMultilayer returns an as-grown sample with n bilayers of the given
// period. It panics on non-positive arguments, which always indicate a
// caller bug.
func NewMultilayer(n int, periodNM float64) *Multilayer {
	if n <= 0 {
		panic(fmt.Sprintf("physics: non-positive bilayer count %d", n))
	}
	if periodNM <= 0 {
		panic(fmt.Sprintf("physics: non-positive bilayer period %g", periodNM))
	}
	return &Multilayer{Bilayers: n, PeriodNM: periodNM}
}

// DefaultSample returns a sample matching the paper's film: 20 bilayers
// at the period derived from Fig 8.
func DefaultSample() *Multilayer { return NewMultilayer(20, BilayerPeriodNM) }

// Mixing returns the interface mixing fraction in [0,1].
func (m *Multilayer) Mixing() float64 { return m.mixing }

// Crystallised returns the fcc CoPt alloy fraction in [0,1].
func (m *Multilayer) Crystallised() float64 { return m.crystallised }

// History returns a copy of the anneal history.
func (m *Multilayer) History() []Anneal {
	return append([]Anneal(nil), m.annealHistory...)
}

// AnnealAt applies a heat treatment at tempC for the given duration in
// seconds. Interface mixing follows a thermally activated (Arrhenius)
// sigmoid calibrated to the paper's observations: negligible mixing up
// to 500 °C, dramatic collapse above 600 °C, complete destruction at
// 700 °C. Mixing is irreversible: repeated anneals only accumulate.
func (m *Multilayer) AnnealAt(tempC, seconds float64) {
	if seconds < 0 {
		panic("physics: negative anneal duration")
	}
	m.annealHistory = append(m.annealHistory, Anneal{TemperatureC: tempC, Duration: seconds})

	newMix := mixingEquilibrium(tempC)
	// The film relaxes toward the equilibrium mixing for this
	// temperature with a time constant that shrinks at high T. One
	// hour at temperature (the conventional anneal) reaches >99 % of
	// equilibrium above the onset.
	tau := mixingTimeConstant(tempC)
	frac := 1 - math.Exp(-seconds/tau)
	target := m.mixing + (newMix-m.mixing)*frac
	if target > m.mixing {
		m.mixing = target
	}
	if m.mixing > 1 {
		m.mixing = 1
	}

	// Crystallisation into fcc CoPt(111) requires both heavy mixing and
	// high temperature (grain growth observed at 700 °C in Co/Cu,
	// paper §2; the 41.7° peak of Fig 9 after the 700 °C anneal).
	if tempC >= CollapseCelsius {
		eq := crystallisationEquilibrium(tempC)
		cfrac := 1 - math.Exp(-seconds/tau)
		ct := m.crystallised + (eq-m.crystallised)*cfrac
		if ct > m.crystallised {
			m.crystallised = ct
		}
		if m.crystallised > 1 {
			m.crystallised = 1
		}
	}
}

// ConventionalAnneal applies the standard one-hour anneal used for
// every data point of Fig 7.
func (m *Multilayer) ConventionalAnneal(tempC float64) { m.AnnealAt(tempC, 3600) }

// mixingEquilibrium maps an anneal temperature to the asymptotic
// interface-mixing fraction: a logistic centred between the onset and
// collapse temperatures. At 500 °C ≈ 4 %, at 600 °C ≈ 70 %, at
// 700 °C ≈ 99.9 %.
func mixingEquilibrium(tempC float64) float64 {
	if tempC <= 0 {
		return 0
	}
	const centre = 580.0 // °C
	const width = 28.0   // °C
	return 1 / (1 + math.Exp(-(tempC-centre)/width))
}

// mixingTimeConstant returns the relaxation time constant in seconds at
// the given temperature. Thermally activated, with the activation
// energy calibrated to three constraints at once: the conventional
// one-hour anneal equilibrates anywhere above the onset (Fig 7), the
// device's sub-millisecond probe-heating pulse at ~900 °C destroys a
// dot (§7 "currents are even capable of evaporating the material"),
// and room-temperature storage is stable for centuries (the
// data-retention requirement: τ(25 °C) ≈ 2×10³ years).
func mixingTimeConstant(tempC float64) float64 {
	tK := tempC + 273.15
	if tK <= 0 {
		return math.Inf(1)
	}
	const (
		tau0 = 1e-10  // s, attempt time
		eaK  = 14300. // activation energy over k_B, in kelvin
	)
	return tau0 * math.Exp(eaK/tK)
}

// PulseMixing returns the interface-mixing fraction produced by one
// heat pulse of the given temperature and duration applied to pristine
// interfaces. This is the physics behind the device's electrical write:
// the probe current raises one dot to tempC for a few microseconds
// (§7: "we envisage that heating of the magnetic dots will be realised
// by passing a current from the probe tip to the dot"). Pulses below
// the mixing onset achieve little regardless of repetition — the
// equilibrium itself is low — while pulses well above it destroy the
// dot in a single shot.
func PulseMixing(tempC, seconds float64) float64 {
	return PulseDamage(tempC, seconds, 0)
}

// PulseDamage advances a dot's accumulated mixing fraction by one heat
// pulse: the mixing relaxes toward the temperature's equilibrium value
// and never decreases (irreversibility). A pulse temperature whose
// equilibrium lies below the destruction threshold can therefore never
// destroy a dot, no matter how often it is repeated.
func PulseDamage(tempC, seconds, current float64) float64 {
	if seconds <= 0 {
		return current
	}
	return NewPulse(tempC, seconds).Damage(current)
}

// Pulse is a heat pulse of fixed temperature and duration reduced to
// the two numbers that advance a dot's damage: the temperature's
// equilibrium mixing and the fraction 1 − e^(−t/τ) of the gap to it
// that one pulse closes. A medium pulses at only two temperatures, so
// it builds their Pulses once and each pulse is a multiply-add;
// PulseDamage goes through the same Damage, so both give the same
// floats bit for bit.
type Pulse struct {
	eq, frac float64
}

// NewPulse returns the pulse of the given temperature and duration. A
// non-positive duration gives the zero Pulse, which leaves any damage
// in [0,1] unchanged.
func NewPulse(tempC, seconds float64) Pulse {
	if seconds <= 0 {
		return Pulse{}
	}
	return Pulse{
		eq:   mixingEquilibrium(tempC),
		frac: 1 - math.Exp(-seconds/mixingTimeConstant(tempC)),
	}
}

// Damage advances the accumulated mixing fraction current by one
// pulse: toward the equilibrium, never down and never past 1.
func (p Pulse) Damage(current float64) float64 {
	next := current + (p.eq-current)*p.frac
	if next < current {
		return current
	}
	if next > 1 {
		return 1
	}
	return next
}

// HeatedDamageThreshold is the mixing fraction beyond which a dot's
// surviving interface anisotropy falls under the shape anisotropy and
// the easy axis rotates in-plane: K·(1−m) < K_shape.
const HeatedDamageThreshold = 1 - ShapeAnisotropy/AsGrownAnisotropy

// crystallisationEquilibrium maps temperature to the asymptotic fcc
// CoPt fraction; significant only well above the collapse temperature.
func crystallisationEquilibrium(tempC float64) float64 {
	const centre = 660.0
	const width = 25.0
	return 1 / (1 + math.Exp(-(tempC-centre)/width))
}

// PerpendicularAnisotropy returns the film's perpendicular anisotropy
// constant K in J/m^3 given its current interface state. Interface
// anisotropy scales with the surviving interface fraction; the tilted
// anisotropy of any crystallised fcc CoPt fraction does not restore a
// perpendicular easy axis (paper §7: "there is no risk that after
// excessive heating the perpendicular anisotropy can be restored by
// crystallisation").
func (m *Multilayer) PerpendicularAnisotropy() float64 {
	return AsGrownAnisotropy * (1 - m.mixing)
}

// EasyAxis reports the easy axis orientation of the film given its
// anisotropy balance. The in-plane shape (demagnetising) contribution
// for a flat dot is fixed; once interface anisotropy falls below it the
// easy axis rotates in-plane.
type EasyAxis int

// Easy-axis orientations.
const (
	// EasyPerpendicular: magnetisation prefers out-of-plane (usable
	// for normal recording).
	EasyPerpendicular EasyAxis = iota
	// EasyInPlane: interface anisotropy destroyed; dot reads as
	// "heated".
	EasyInPlane
	// EasyTilted: crystallised fct CoPt [001] tilted axes (Fig 9
	// discussion) — still not perpendicular, so still tamper-evident.
	EasyTilted
)

// String returns a human-readable axis name.
func (e EasyAxis) String() string {
	switch e {
	case EasyPerpendicular:
		return "perpendicular"
	case EasyInPlane:
		return "in-plane"
	case EasyTilted:
		return "tilted"
	default:
		return fmt.Sprintf("EasyAxis(%d)", int(e))
	}
}

// ShapeAnisotropy is the effective in-plane shape anisotropy a dot's
// interface anisotropy must beat to hold perpendicular magnetisation,
// in J/m^3. Flat disks (diameter >> thickness) strongly prefer
// in-plane; the multilayer interfaces must supply more than this.
const ShapeAnisotropy = 30e3

// EasyAxisOrientation returns the current easy-axis class of the film.
func (m *Multilayer) EasyAxisOrientation() EasyAxis {
	if m.PerpendicularAnisotropy() > ShapeAnisotropy {
		return EasyPerpendicular
	}
	if m.crystallised > 0.5 {
		return EasyTilted
	}
	return EasyInPlane
}

// SupportsRecording reports whether the film still supports normal
// out-of-plane magnetic recording.
func (m *Multilayer) SupportsRecording() bool {
	return m.EasyAxisOrientation() == EasyPerpendicular
}
