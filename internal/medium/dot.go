// Package medium simulates the patterned magnetic medium: a regular
// matrix of single-domain magnetic dots with perpendicular easy axis.
// Each dot supports the paper's four bit operations:
//
//   - mwb: magnetic write (set magnetisation up=1 / down=0)
//   - mrb: magnetic read (sense magnetisation via the MFM signal)
//   - ewb: electrical write (heat the dot, irreversibly destroying its
//     out-of-plane anisotropy — the write-once operation)
//   - erb: electrical read (detect heating via the 5-step
//     read/invert/verify/restore protocol of §3)
//
// The medium exposes an analog read signal so that the "more or less
// random result" of magnetically reading a heated dot (Fig 2) emerges
// from the physics model rather than being hard-coded.
package medium

import (
	"fmt"
	"sync"

	"sero/internal/physics"
	"sero/internal/sim"
)

// DotState is the observable state of a dot, matching Fig 2.
type DotState int

// Dot states per Fig 2 of the paper.
const (
	// Dot0 is a magnetised dot representing logical 0 (down).
	Dot0 DotState = iota
	// Dot1 is a magnetised dot representing logical 1 (up).
	Dot1
	// DotH is a heated dot: multilayer destroyed, easy axis in-plane.
	DotH
)

// String returns the Fig 2 label of the state.
func (s DotState) String() string {
	switch s {
	case Dot0:
		return "0"
	case Dot1:
		return "1"
	case DotH:
		return "H"
	default:
		return fmt.Sprintf("DotState(%d)", int(s))
	}
}

// dot is the internal per-dot record. Dots are kept small: media with
// tens of millions of dots are routine in the experiments.
type dot struct {
	// up is the out-of-plane magnetisation direction (true = up = 1).
	// Meaningless once the dot is heated.
	up bool
	// inPlaneSign is the random in-plane orientation the magnetisation
	// falls into when the dot is heated; it biases the residual read
	// signal of a damaged dot.
	inPlaneSign int8
	// stuck injects a permanent defect (see faults.go).
	stuck StuckKind
	// damage is the accumulated interface-mixing fraction from heat
	// pulses, in [0,1]. The dot is "heated" (state H) once damage
	// exceeds physics.HeatedDamageThreshold: the surviving interface
	// anisotropy no longer beats the shape anisotropy. Monotone:
	// mixing is irreversible.
	damage float32
}

// heated reports whether the dot's multilayer is destroyed.
func (d *dot) heated() bool {
	return float64(d.damage) >= physics.HeatedDamageThreshold
}

// Params collects the physical parameters of a medium.
type Params struct {
	// Rows, Cols give the dot-matrix geometry.
	Rows, Cols int

	// PitchNM is the dot pitch in nanometres (paper: 200 demonstrated,
	// 100 targeted for 10 Gbit/cm²).
	PitchNM float64

	// SignalAmplitude is the noiseless MFM read amplitude of a healthy
	// dot (arbitrary units; the decode threshold is derived from it).
	SignalAmplitude float64

	// ReadNoiseSigma is the RMS additive noise per read sample.
	ReadNoiseSigma float64

	// ResidualInPlaneSignal is the tiny out-of-plane component a heated
	// dot still couples into the reader (ideally 0; non-zero values
	// stress the erb protocol — experiment E7).
	ResidualInPlaneSignal float64

	// ThermalCrosstalk is the probability that heating a dot disturbs
	// the *magnetisation* of an immediate neighbour (paper §7:
	// "the magnetic state ... of the adjacent dot could be affected").
	ThermalCrosstalk float64

	// PulseTempC is the peak temperature one electrical-write pulse
	// raises the target dot to. The default 900 °C/50 µs pulse is
	// ~2.5 relaxation times, destroying the dot in one shot; with the
	// substrate acting as a heat sink (§7), neighbours see only
	// NeighborTempFactor of it.
	PulseTempC float64

	// PulseSeconds is the pulse dwell time.
	PulseSeconds float64

	// NeighborTempFactor attenuates the pulse temperature at the four
	// nearest neighbours (0 disables neighbour heating entirely).
	NeighborTempFactor float64

	// Seed seeds the medium's noise generator.
	Seed uint64
}

// DefaultParams returns parameters for a healthy 100 nm-pitch medium
// with a 20:1 signal-to-noise ratio and 1 % thermal crosstalk.
func DefaultParams(rows, cols int) Params {
	return Params{
		Rows:                  rows,
		Cols:                  cols,
		PitchNM:               100,
		SignalAmplitude:       1.0,
		ReadNoiseSigma:        0.05,
		ResidualInPlaneSignal: 0.02,
		ThermalCrosstalk:      0.01,
		PulseTempC:            900,
		PulseSeconds:          50e-6,
		NeighborTempFactor:    0.4,
		Seed:                  1,
	}
}

// Medium is a simulated patterned medium. It keeps only the physical
// state of its dots; operation counts live in the device layer. Bit
// operations on disjoint dot regions may run concurrently: the noise
// generator is internally locked. Operations touching the *same* dots
// must still be serialised by the caller — the device layer's region
// locks enforce that (and extend write locks over the
// thermal-crosstalk neighbourhood of electrical writes).
type Medium struct {
	p    Params
	dots []dot

	// rngMu guards rng: noise draws come from one deterministic
	// stream regardless of which region is being read.
	rngMu sync.Mutex
	rng   *sim.RNG
}

// New creates a medium with the given parameters. It panics on
// non-positive geometry: media sizes are static configuration, so a bad
// size is a programming error, not a runtime condition.
func New(p Params) *Medium {
	if p.Rows <= 0 || p.Cols <= 0 {
		panic(fmt.Sprintf("medium: invalid geometry %dx%d", p.Rows, p.Cols))
	}
	if p.SignalAmplitude <= 0 {
		panic("medium: non-positive signal amplitude")
	}
	m := &Medium{
		p:    p,
		dots: make([]dot, p.Rows*p.Cols),
		rng:  sim.NewRNG(p.Seed),
	}
	return m
}

// Params returns the medium's parameters.
func (m *Medium) Params() Params { return m.p }

// Dots returns the total number of dots.
func (m *Medium) Dots() int { return len(m.dots) }

// CapacityBits returns the usable bit capacity (one bit per dot).
func (m *Medium) CapacityBits() int { return len(m.dots) }

// AreaCM2 returns the medium area in cm², from the dot pitch.
func (m *Medium) AreaCM2() float64 {
	pitchCM := m.p.PitchNM * 1e-7
	return float64(m.p.Rows) * float64(m.p.Cols) * pitchCM * pitchCM
}

// DensityGbitPerCM2 returns the areal density in Gbit/cm². With the
// 100 nm pitch of the paper this is 10 Gbit/cm².
func (m *Medium) DensityGbitPerCM2() float64 {
	return float64(m.CapacityBits()) / m.AreaCM2() / 1e9
}

// Index converts a (row, col) dot coordinate to the linear index used
// by the bit operations. It panics on out-of-matrix coordinates.
func (m *Medium) Index(row, col int) int {
	if row < 0 || row >= m.p.Rows || col < 0 || col >= m.p.Cols {
		panic(fmt.Sprintf("medium: dot (%d,%d) outside %dx%d matrix",
			row, col, m.p.Rows, m.p.Cols))
	}
	return row*m.p.Cols + col
}

// at addresses a dot by linear index (row-major).
func (m *Medium) at(i int) *dot {
	return &m.dots[i]
}

// State returns the true physical state of dot i. This is an oracle for
// tests and the forensics tooling ("a forensics team would probably
// have no difficulty identifying a reconstructed dot", §8); the device
// layer never uses it.
func (m *Medium) State(i int) DotState {
	d := m.at(i)
	switch {
	case d.heated():
		return DotH
	case d.up:
		return Dot1
	default:
		return Dot0
	}
}

// readSignal produces the analog MFM read signal of dot i: full
// amplitude for a healthy dot, residual leakage plus noise for a heated
// one (the disappearing peak of Fig 1).
func (m *Medium) readSignal(i int) float64 {
	d := m.at(i)
	var s float64
	switch {
	case d.stuck == StuckUp:
		s = m.p.SignalAmplitude
	case d.stuck == StuckDown:
		s = -m.p.SignalAmplitude
	case d.stuck == StuckDead:
		s = 0
	case d.heated():
		s = m.p.ResidualInPlaneSignal * float64(d.inPlaneSign)
	case d.up:
		s = m.p.SignalAmplitude
	default:
		s = -m.p.SignalAmplitude
	}
	if m.p.ReadNoiseSigma > 0 {
		m.rngMu.Lock()
		s += m.p.ReadNoiseSigma * m.rng.NormFloat64()
		m.rngMu.Unlock()
	}
	return s
}

// MRB performs a magnetic read of dot i, returning the decoded bit.
// For a heated dot the decoded value is noise-driven and therefore "more
// or less random" (Fig 2): callers that need to detect heating must use
// ERB instead — that is the device protocol the paper mandates.
func (m *Medium) MRB(i int) bool {
	return m.readSignal(i) >= 0
}

// MRBAnalog performs a magnetic read returning the raw analog signal.
// Used by the read-channel diagnostics and by tests asserting the
// Fig 1 peak behaviour.
func (m *Medium) MRBAnalog(i int) float64 {
	return m.readSignal(i)
}

// MWB performs a magnetic write of dot i. Writing a heated dot has no
// effect on the stored information: the dot has no out-of-plane
// remanence left (§5.1 "Changing the magnetisation of an electrically
// written bit ... has no effect").
func (m *Medium) MWB(i int, bit bool) {
	d := m.at(i)
	if d.heated() {
		return
	}
	d.up = bit
}

// EWB performs the electrical write (heating) of dot i: one probe
// current pulse at the medium's configured pulse temperature and
// duration. Interface mixing accumulates per the annealing physics
// (physics.PulseMixing); with the default 900 °C/20 µs pulse a single
// EWB destroys the dot irreversibly (state H). Weak pulses damage the
// dot only partially — experiment E10 sweeps that design space.
// Heating an already-heated dot is a no-op on the stored information.
//
// Neighbours receive an attenuated pulse (NeighborTempFactor of the
// absolute pulse temperature), accumulating their own damage, and
// with probability ThermalCrosstalk their *magnetisation* is disturbed
// by the heat spill (§7: "the magnetic state, or even the
// write-ability of the adjacent dot could be affected").
func (m *Medium) EWB(i int) {
	d := m.at(i)
	m.pulse(d, m.p.PulseTempC)

	row, col := i/m.p.Cols, i%m.p.Cols
	for _, delta := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := row+delta[0], col+delta[1]
		if nr < 0 || nr >= m.p.Rows || nc < 0 || nc >= m.p.Cols {
			continue
		}
		n := m.at(nr*m.p.Cols + nc)
		if m.p.NeighborTempFactor > 0 {
			m.pulse(n, m.p.PulseTempC*m.p.NeighborTempFactor)
		}
		if m.p.ThermalCrosstalk > 0 && m.randFloat() < m.p.ThermalCrosstalk {
			if !n.heated() {
				n.up = !n.up
			}
		}
	}
}

// randFloat draws from the shared noise stream under the rng lock.
func (m *Medium) randFloat() float64 {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Float64()
}

// randBool draws from the shared noise stream under the rng lock.
func (m *Medium) randBool() bool {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Bool()
}

// pulse applies one heat pulse at tempC to a dot, accumulating
// interface-mixing damage. Crossing the destruction threshold fixes
// the in-plane orientation the magnetisation falls into.
func (m *Medium) pulse(d *dot, tempC float64) {
	if d.heated() {
		return
	}
	next := physics.PulseDamage(tempC, m.p.PulseSeconds, float64(d.damage))
	if next <= float64(d.damage) {
		return
	}
	wasHeated := d.heated()
	d.damage = float32(next)
	if !wasHeated && d.heated() {
		if m.randBool() {
			d.inPlaneSign = 1
		} else {
			d.inPlaneSign = -1
		}
	}
}

// Damage returns the accumulated interface-mixing fraction of dot i.
func (m *Medium) Damage(i int) float64 { return float64(m.at(i).damage) }

// ERB performs the electrical read of dot i using the paper's exact
// 5-step protocol (§3): read, write inverse, verify inverse, write
// original back, verify original. If either verification fails the dot
// has lost its out-of-plane property and ERB reports heated=true.
// For un-heated dots the two inversions restore the original data.
//
// The protocol costs 3 magnetic reads and 2 magnetic writes, which is
// why the paper calls erb "at least 5 times slower than mrb"; the
// device layer charges latency accordingly.
func (m *Medium) ERB(i int) (heated bool) {
	orig := m.MRB(i)  // 1. read the original bit
	m.MWB(i, !orig)   // 2. write the inverse
	inv := m.MRB(i)   // 3. verify the inverse reads back
	m.MWB(i, orig)    // 4. restore the original
	again := m.MRB(i) // 5. verify the original reads back
	if inv == orig || again != orig {
		return true
	}
	return false
}

// HeatedCount returns the number of heated dots — the RO fraction of
// the medium grows monotonically over its life (§8 "the read/write area
// gradually shrinks").
func (m *Medium) HeatedCount() int {
	n := 0
	for i := range m.dots {
		if m.dots[i].heated() {
			n++
		}
	}
	return n
}

// BulkErase simulates a degausser pass (§5.2 availability analysis):
// all magnetic information is randomised, but heated dots remain heated
// — the electrically written evidence survives.
func (m *Medium) BulkErase() {
	for i := range m.dots {
		if !m.dots[i].heated() {
			m.dots[i].up = m.randBool()
		}
	}
}
