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
//
// Representation. A healthy dot is one bit: magnetisation is packed
// into 64-bit words, each row padded to whole words. Heat damage, the
// in-plane orientation of a heated dot and injected defects live in a
// sparse per-row overlay, allocated the first time a row needs one and
// dropped when ReplaceRegion leaves it empty. MRBImage and MWBImage
// move an MSB-first block image word by word.
//
// Noise. Every magnetic read of a dot draws one Gaussian from the
// medium's single deterministic stream. A full-amplitude dot (neither
// heated nor stuck; partial damage does not change its level) reads
// ±A + σ·N with |N| < sim.NormBound, so when σ·sim.NormBound < A no
// draw can change its decoded bit. MRBImage then advances the stream
// past a range of such dots with sim.RNG.SkipNormFloat64 and copies the
// stored words, and ERBRange settles each such dot's erb attempts the
// same way; heated and stuck dots, and every dot of a noisier medium,
// go through the per-dot body. Either way the decoded bits, the stored
// state and the stream's position match per-dot MRB/MWB calls draw for
// draw. A ranged read holds the stream's lock for its whole range, so
// concurrent readers of disjoint rows interleave their draws one range
// at a time, not one dot at a time.
//
// Snapshots keep format v3 (two bytes per dot), byte for byte.
package medium

import (
	"encoding/binary"
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

// overlayDot is the state of one dot beyond its magnetisation. A
// healthy dot has the zero value, so only rows holding a heated,
// partially damaged or defective dot carry these records.
type overlayDot struct {
	// damage is the accumulated interface-mixing fraction from heat
	// pulses, in [0,1]. The dot is "heated" (state H) once damage
	// exceeds physics.HeatedDamageThreshold: the surviving interface
	// anisotropy no longer beats the shape anisotropy. Monotone:
	// mixing is irreversible.
	damage float32
	// inPlaneSign is the random in-plane orientation the magnetisation
	// falls into when the dot is heated; it biases the residual read
	// signal of a damaged dot.
	inPlaneSign int8
	// stuck injects a permanent defect (see faults.go).
	stuck StuckKind
}

// heated reports whether the dot's multilayer is destroyed.
func (d *overlayDot) heated() bool {
	return float64(d.damage) >= physics.HeatedDamageThreshold
}

// fullAmplitude reports whether the dot reads at a healthy dot's level,
// ±SignalAmplitude by its stored bit: it is neither heated nor stuck.
// Partial damage below the heat threshold leaves the level unchanged.
func (d *overlayDot) fullAmplitude() bool {
	return d.stuck == StuckNone && !d.heated()
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

// Quiet returns a copy of p with every stochastic disturbance off:
// no read noise, no residual in-plane signal and no crosstalk flips.
// Reads and heats on a quiet medium are deterministic, which is what
// keeps the simulator's tests, experiments and benchmarks
// byte-reproducible.
func (p Params) Quiet() Params {
	p.ReadNoiseSigma, p.ResidualInPlaneSignal, p.ThermalCrosstalk = 0, 0, 0
	return p
}

// Medium is a simulated patterned medium. It keeps only the physical
// state of its dots; operation counts live in the device layer.
//
// Magnetisation is packed one bit per dot into 64-bit words, MSB-first,
// and each row is padded to whole words so two rows never share a word.
// Heat damage, in-plane orientation and defects live in a sparse per-row
// overlay that exists only for rows holding such a dot (heated lines,
// their crosstalk neighbours, injected faults); a healthy row's overlay
// is nil and costs the row nothing beyond its words.
//
// Bit operations on disjoint rows may run concurrently: the noise
// generator is internally locked and no word or overlay spans two rows.
// Operations touching the *same* row must still be serialised by the
// caller — the device layer's per-block locks enforce that (a block is
// one row in the standard geometry, and the locks of electrical writes
// extend over the thermal-crosstalk neighbourhood).
type Medium struct {
	p Params
	// wordsPerRow is ceil(Cols/64): the padded row stride of bits.
	wordsPerRow int
	// bits holds the magnetisation (1 = up) of dot (row, col) at bit
	// 63-col%64 of bits[row*wordsPerRow+col/64].
	bits []uint64
	// overlay[row] holds Cols records for a row with any damaged or
	// defective dot, and is nil for a healthy row.
	overlay [][]overlayDot
	// skipNoise reports that no read noise draw can flip a healthy
	// dot's decoded bit: ReadNoiseSigma·sim.NormBound < SignalAmplitude.
	skipNoise bool

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
	wpr := (p.Cols + 63) / 64
	return &Medium{
		p:           p,
		wordsPerRow: wpr,
		bits:        make([]uint64, p.Rows*wpr),
		overlay:     make([][]overlayDot, p.Rows),
		skipNoise:   p.ReadNoiseSigma*sim.NormBound < p.SignalAmplitude,
		rng:         sim.NewRNG(p.Seed),
	}
}

// Params returns the medium's parameters.
func (m *Medium) Params() Params { return m.p }

// Dots returns the total number of dots.
func (m *Medium) Dots() int { return m.p.Rows * m.p.Cols }

// CapacityBits returns the usable bit capacity (one bit per dot).
func (m *Medium) CapacityBits() int { return m.Dots() }

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

// loc splits linear dot index i (row-major) into its row and column.
// It panics on an index outside the medium.
func (m *Medium) loc(i int) (row, col int) {
	if i < 0 || i >= m.Dots() {
		panic(fmt.Sprintf("medium: dot %d outside %d dots", i, m.Dots()))
	}
	return i / m.p.Cols, i % m.p.Cols
}

// up reports the stored magnetisation of dot (row, col).
func (m *Medium) up(row, col int) bool {
	return m.bits[row*m.wordsPerRow+col>>6]&(1<<(63-col&63)) != 0
}

// setUp stores the magnetisation of dot (row, col).
func (m *Medium) setUp(row, col int, up bool) {
	w := &m.bits[row*m.wordsPerRow+col>>6]
	if up {
		*w |= 1 << (63 - col&63)
	} else {
		*w &^= 1 << (63 - col&63)
	}
}

// extra returns dot (row, col)'s overlay record, or nil for a dot in a
// healthy row.
func (m *Medium) extra(row, col int) *overlayDot {
	if ov := m.overlay[row]; ov != nil {
		return &ov[col]
	}
	return nil
}

// extraFor returns dot (row, col)'s overlay record, creating the row's
// overlay on first use.
func (m *Medium) extraFor(row, col int) *overlayDot {
	if m.overlay[row] == nil {
		m.overlay[row] = make([]overlayDot, m.p.Cols)
	}
	return &m.overlay[row][col]
}

// heatedAt reports whether dot (row, col)'s multilayer is destroyed.
func (m *Medium) heatedAt(row, col int) bool {
	e := m.extra(row, col)
	return e != nil && e.heated()
}

// State returns the true physical state of dot i. This is an oracle for
// tests and the forensics tooling ("a forensics team would probably
// have no difficulty identifying a reconstructed dot", §8); the device
// layer never uses it.
func (m *Medium) State(i int) DotState {
	row, col := m.loc(i)
	switch {
	case m.heatedAt(row, col):
		return DotH
	case m.up(row, col):
		return Dot1
	default:
		return Dot0
	}
}

// level is the noiseless MFM read signal of dot (row, col): full
// amplitude for a healthy dot, residual leakage for a heated one (the
// disappearing peak of Fig 1), the pinned level for a defect.
func (m *Medium) level(row, col int) float64 {
	if e := m.extra(row, col); e != nil {
		switch {
		case e.stuck == StuckUp:
			return m.p.SignalAmplitude
		case e.stuck == StuckDown:
			return -m.p.SignalAmplitude
		case e.stuck == StuckDead:
			return 0
		case e.heated():
			return m.p.ResidualInPlaneSignal * float64(e.inPlaneSign)
		}
	}
	if m.up(row, col) {
		return m.p.SignalAmplitude
	}
	return -m.p.SignalAmplitude
}

// signal is the analog MFM read signal of dot (row, col): its level
// plus one draw of read noise. Caller holds rngMu when the medium is
// noisy.
func (m *Medium) signal(row, col int) float64 {
	s := m.level(row, col)
	if m.p.ReadNoiseSigma > 0 {
		s += m.p.ReadNoiseSigma * m.rng.NormFloat64()
	}
	return s
}

// readSignal produces the analog MFM read signal of dot i under the
// noise lock.
func (m *Medium) readSignal(i int) float64 {
	row, col := m.loc(i)
	if m.p.ReadNoiseSigma > 0 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
	}
	return m.signal(row, col)
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
	row, col := m.loc(i)
	m.write(row, col, bit)
}

// write is MWB of dot (row, col).
func (m *Medium) write(row, col int, bit bool) {
	if !m.heatedAt(row, col) {
		m.setUp(row, col, bit)
	}
}

// segments calls f for each row-contained piece of dots
// [base, base+n): dots col..col+cnt-1 of row, which are dots k..k+cnt-1
// of the range. It panics on a range outside the medium.
func (m *Medium) segments(base, n int, f func(row, col, k, cnt int)) {
	if n < 0 || base < 0 || base+n > m.Dots() {
		panic(fmt.Sprintf("medium: dots [%d,%d) outside %d dots", base, base+n, m.Dots()))
	}
	for k := 0; k < n; {
		row, col := (base+k)/m.p.Cols, (base+k)%m.p.Cols
		cnt := min(m.p.Cols-col, n-k)
		f(row, col, k, cnt)
		k += cnt
	}
}

// fullAmplitude reports whether every dot col..col+cnt-1 of row reads
// at a healthy dot's level (see overlayDot.fullAmplitude).
func (m *Medium) fullAmplitude(row, col, cnt int) bool {
	if ov := m.overlay[row]; ov != nil {
		for j := col; j < col+cnt; j++ {
			if !ov[j].fullAmplitude() {
				return false
			}
		}
	}
	return true
}

// anyHeated reports whether any dot col..col+cnt-1 of row is heated.
func (m *Medium) anyHeated(row, col, cnt int) bool {
	if ov := m.overlay[row]; ov != nil {
		for j := col; j < col+cnt; j++ {
			if ov[j].heated() {
				return true
			}
		}
	}
	return false
}

// MRBImage magnetically reads dots [base, base+8·len(dst)) into dst as
// an MSB-first image: bit 7-j%8 of dst[j/8] is MRB(base+j). The result
// and the noise stream's position afterwards are exactly those of the
// per-dot MRB loop in index order.
//
// When every dot in the range reads at full amplitude (no heated or
// stuck dot; partial damage is allowed) and the noise cannot flip such
// a dot (ReadNoiseSigma·sim.NormBound < SignalAmplitude), every decoded
// bit is the stored bit whatever the draws, so the read skips its draws
// in one step and copies whole words. Otherwise it reads dot by dot,
// drawing a full Gaussian for each.
func (m *Medium) MRBImage(base int, dst []byte) {
	n := 8 * len(dst)
	clear(dst)
	clean := m.skipNoise
	m.segments(base, n, func(row, col, _, cnt int) {
		clean = clean && m.fullAmplitude(row, col, cnt)
	})
	sigma := m.p.ReadNoiseSigma
	if sigma > 0 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
	}
	if clean {
		if sigma > 0 {
			m.rng.SkipNormFloat64(n)
		}
		m.segments(base, n, func(row, col, k, cnt int) {
			words := m.bits[row*m.wordsPerRow:]
			j := 0
			if col&63 == 0 && k&7 == 0 {
				for ; j+64 <= cnt; j += 64 {
					binary.BigEndian.PutUint64(dst[(k+j)>>3:], words[(col+j)>>6])
				}
			}
			for ; j < cnt; j++ {
				if m.up(row, col+j) {
					dst[(k+j)>>3] |= 0x80 >> ((k + j) & 7)
				}
			}
		})
		return
	}
	m.segments(base, n, func(row, col, k, cnt int) {
		for j := 0; j < cnt; j++ {
			if m.signal(row, col+j) >= 0 {
				dst[(k+j)>>3] |= 0x80 >> ((k + j) & 7)
			}
		}
	})
}

// MWBImage magnetically writes the MSB-first image src to dots
// [base, base+8·len(src)): dot base+j receives bit 7-j%8 of src[j/8],
// exactly as MWB would, so heated dots keep their state. A row piece
// holding no heated dot is written a word at a time.
func (m *Medium) MWBImage(base int, src []byte) {
	m.segments(base, 8*len(src), func(row, col, k, cnt int) {
		words := m.bits[row*m.wordsPerRow:]
		j := 0
		if col&63 == 0 && k&7 == 0 && !m.anyHeated(row, col, cnt) {
			for ; j+64 <= cnt; j += 64 {
				words[(col+j)>>6] = binary.BigEndian.Uint64(src[(k+j)>>3:])
			}
		}
		for ; j < cnt; j++ {
			m.write(row, col+j, src[(k+j)>>3]&(0x80>>((k+j)&7)) != 0)
		}
	})
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
	row, col := m.loc(i)
	m.pulse(row, col, m.p.PulseTempC)

	for _, delta := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := row+delta[0], col+delta[1]
		if nr < 0 || nr >= m.p.Rows || nc < 0 || nc >= m.p.Cols {
			continue
		}
		if m.p.NeighborTempFactor > 0 {
			m.pulse(nr, nc, m.p.PulseTempC*m.p.NeighborTempFactor)
		}
		if m.p.ThermalCrosstalk > 0 && m.randFloat() < m.p.ThermalCrosstalk {
			if !m.heatedAt(nr, nc) {
				m.setUp(nr, nc, !m.up(nr, nc))
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

// pulse applies one heat pulse at tempC to dot (row, col), accumulating
// interface-mixing damage. Crossing the destruction threshold fixes
// the in-plane orientation the magnetisation falls into. A pulse that
// leaves the stored damage unchanged creates no overlay.
func (m *Medium) pulse(row, col int, tempC float64) {
	var cur float32
	if e := m.extra(row, col); e != nil {
		if e.heated() {
			return
		}
		cur = e.damage
	}
	next := physics.PulseDamage(tempC, m.p.PulseSeconds, float64(cur))
	if next <= float64(cur) || float32(next) == cur {
		return
	}
	e := m.extraFor(row, col)
	e.damage = float32(next)
	if e.heated() {
		if m.randBool() {
			e.inPlaneSign = 1
		} else {
			e.inPlaneSign = -1
		}
	}
}

// Damage returns the accumulated interface-mixing fraction of dot i.
func (m *Medium) Damage(i int) float64 {
	if e := m.extra(m.loc(i)); e != nil {
		return float64(e.damage)
	}
	return 0
}

// ERB performs the electrical read of dot i using the paper's exact
// 5-step protocol (§3): read, write inverse, verify inverse, write
// original back, verify original. If either verification fails the dot
// has lost its out-of-plane property and ERB reports heated=true.
// For un-heated dots the two inversions restore the original data.
//
// The protocol costs 3 magnetic reads and 2 magnetic writes, which is
// why the paper calls erb "at least 5 times slower than mrb"; the
// device layer charges latency accordingly. ERB is the one-dot,
// one-attempt case of ERBRange.
func (m *Medium) ERB(i int) (heated bool) {
	var h [1]bool
	m.ERBRange(i, 1, h[:])
	return h[0]
}

// ERBRange electrically reads dots [base, base+len(dst)) in index
// order: each dot gets up to retries attempts of the ERB protocol and
// dst[k] reports dot base+k heated as soon as one attempt fails
// verification. The verdicts, the stored state and the noise stream's
// position afterwards are exactly those of calling ERB up to retries
// times per dot in index order.
//
// The range is walked row by row under one hold of the noise lock. When
// the noise cannot flip a healthy dot (ReadNoiseSigma·sim.NormBound <
// SignalAmplitude), a dot that reads at full amplitude (no heated or
// stuck record) passes every attempt whatever the draws and its two
// writes cancel, so it settles without touching the medium: not heated,
// its 3·retries draws skipped together with those of the full-amplitude
// dots next to it. Heated and stuck dots, and every dot of a noisier
// medium, run the protocol itself.
func (m *Medium) ERBRange(base, retries int, dst []bool) {
	sigma := m.p.ReadNoiseSigma
	if sigma > 0 {
		m.rngMu.Lock()
		defer m.rngMu.Unlock()
	}
	// settled counts the full-amplitude dots whose draws are not yet
	// skipped.
	settled := 0
	skip := func() {
		if sigma > 0 {
			m.rng.SkipNormFloat64(3 * retries * settled)
		}
		settled = 0
	}
	m.segments(base, len(dst), func(row, col, k, cnt int) {
		ov := m.overlay[row]
		if m.skipNoise && ov == nil {
			clear(dst[k : k+cnt])
			settled += cnt
			return
		}
		for j := 0; j < cnt; j++ {
			if m.skipNoise && ov[col+j].fullAmplitude() {
				dst[k+j] = false
				settled++
				continue
			}
			skip()
			dst[k+j] = m.erb(row, col+j, retries)
		}
	})
	skip()
}

// erb runs up to retries attempts of the 5-step protocol on dot
// (row, col), reporting heated on the first failed verification.
// Caller holds rngMu when the medium is noisy.
func (m *Medium) erb(row, col, retries int) bool {
	for r := 0; r < retries; r++ {
		orig := m.signal(row, col) >= 0  // 1. read the original bit
		m.write(row, col, !orig)         // 2. write the inverse
		inv := m.signal(row, col) >= 0   // 3. verify the inverse reads back
		m.write(row, col, orig)          // 4. restore the original
		again := m.signal(row, col) >= 0 // 5. verify the original reads back
		if inv == orig || again != orig {
			return true
		}
	}
	return false
}

// HeatedCount returns the number of heated dots — the RO fraction of
// the medium grows monotonically over its life (§8 "the read/write area
// gradually shrinks").
func (m *Medium) HeatedCount() int {
	n := 0
	for _, ov := range m.overlay {
		for i := range ov {
			if ov[i].heated() {
				n++
			}
		}
	}
	return n
}

// BulkErase simulates a degausser pass (§5.2 availability analysis):
// all magnetic information is randomised, but heated dots remain heated
// — the electrically written evidence survives.
func (m *Medium) BulkErase() {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	for row := 0; row < m.p.Rows; row++ {
		for col := 0; col < m.p.Cols; col++ {
			if !m.heatedAt(row, col) {
				m.setUp(row, col, m.rng.Bool())
			}
		}
	}
}
