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
// sparse per-row overlay, allocated the first time a row needs one,
// covering only the prefix of the row up to its last such dot (grown a
// quarter row at a time), and dropped when ReplaceRegion leaves it
// empty. An overlaid row also counts its dots that do not read at full
// amplitude (heated or stuck) and, of those, the stuck ones that are
// not heated, and once it holds a heated dot it keeps a heated bitset
// packed like its magnetisation. So asking whether a row piece reads at
// full amplitude costs O(1) on a row with none, and a noiseless
// electrical read of a row with no cool stuck dot copies the bitset.
// MRBImage and MWBImage move an MSB-first block image word by word.
//
// Heat. A medium pulses at two temperatures only, PulseTempC at the
// target and NeighborTempFactor of it at the four neighbours; New
// reduces each to a physics.Pulse, so one pulse is a multiply-add with
// the floats of physics.PulseDamage.
//
// Noise. Every magnetic read of a dot draws one Gaussian from the
// medium's single deterministic stream. A full-amplitude dot (neither
// heated nor stuck; partial damage does not change its level) reads
// ±A + σ·N with |N| < sim.NormBound, so when σ·sim.NormBound < A no
// draw can change its decoded bit. MRBImage then advances the stream
// past a range of such dots with sim.RNG.SkipNormFloat64 and copies the
// stored words, and ERBRange settles each such dot's erb attempts the
// same way; heated and stuck dots, and every dot of a noisier medium,
// go through the per-dot body, except that on a noiseless medium a
// heated dot's erb verdict is known without running the protocol, so
// a piece of a row whose irregular dots are all heated reads as the
// row's heated bitset. Either way the decoded bits, the stored state
// and the stream's position match per-dot MRB/MWB calls draw for draw. A ranged read
// holds the stream's lock for its whole range, so concurrent readers
// of disjoint rows interleave their draws one range at a time, not one
// dot at a time.
//
// Snapshots keep format v3 (two bytes per dot). A dot's damage byte is
// the nearest 1/255 step on the same side of the heated threshold, so
// a save and reload keeps every dot heated or not as it was.
package medium

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// rowOverlay is the state of one row beyond its magnetisation.
// SetStuck, ReplaceRegion and RestoreSnapshot keep its counts and
// bitset through untally and tally, and pulse through crossed.
type rowOverlay struct {
	// dots holds the records of a prefix of the row; a dot past its end
	// is healthy.
	dots []overlayDot
	// heated is the row's heated bitset, packed like the medium's
	// magnetisation: bit 63-col%64 of heated[col/64] is set exactly when
	// dot col is heated. It is nil until the row holds a heated dot.
	heated []uint64
	// irregular counts the records that do not read at full amplitude:
	// heated or stuck. Partial damage is not counted.
	irregular uint32
	// coolStuck counts the stuck records that are not heated: the
	// irregular dots whose erb verdict the heated bitset does not give.
	coolStuck uint32
}

// untally removes record col from ov's counts and heated bitset before
// the record changes; tally adds it back after.
func (ov *rowOverlay) untally(col int) { ov.count(col, ^uint32(0)) }

// tally adds record col to ov's counts and heated bitset. wordsPerRow
// sizes the bitset the first time the row holds a heated dot.
func (ov *rowOverlay) tally(col, wordsPerRow int) {
	if ov.heated == nil && ov.dots[col].heated() {
		ov.heated = make([]uint64, wordsPerRow)
	}
	ov.count(col, 1)
}

// crossed tallies record col, heated now and not before, as heated:
// the one change a pulse makes to the counts, kept apart from
// untally/tally because every pulse of EWB's neighbour spill would
// otherwise pay for both.
func (ov *rowOverlay) crossed(col, wordsPerRow int) {
	if ov.dots[col].stuck == StuckNone {
		ov.irregular++
	} else {
		ov.coolStuck--
	}
	if ov.heated == nil {
		ov.heated = make([]uint64, wordsPerRow)
	}
	ov.heated[col>>6] |= 1 << (63 - col&63)
}

// count adds delta (1 or -1 as a uint32) to the counts record col
// belongs to and sets or clears its heated bit.
func (ov *rowOverlay) count(col int, delta uint32) {
	e := &ov.dots[col]
	if e.fullAmplitude() {
		return
	}
	ov.irregular += delta
	if !e.heated() {
		ov.coolStuck += delta
		return
	}
	bit := uint64(1) << (63 - col&63)
	if delta == 1 {
		ov.heated[col>>6] |= bit
	} else {
		ov.heated[col>>6] &^= bit
	}
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
	// overlay[row] holds the state beyond magnetisation of a row with
	// any damaged or defective dot, and is nil for a healthy row, so a
	// healthy row costs one pointer beyond its words.
	overlay []*rowOverlay
	// heat and spill are the pulse at PulseTempC a heated dot receives
	// and the attenuated one each of its neighbours receives. They are
	// fixed by New: rows on other goroutines share them.
	heat, spill physics.Pulse
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
		overlay:     make([]*rowOverlay, p.Rows),
		heat:        physics.NewPulse(p.PulseTempC, p.PulseSeconds),
		spill:       physics.NewPulse(p.PulseTempC*p.NeighborTempFactor, p.PulseSeconds),
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

// extra returns dot (row, col)'s overlay record, or nil for a healthy
// dot past the end of its row's overlay.
func (m *Medium) extra(row, col int) *overlayDot {
	if ov := m.overlay[row]; ov != nil && col < len(ov.dots) {
		return &ov.dots[col]
	}
	return nil
}

// extraFor returns dot (row, col)'s overlay record, creating or growing
// the row's overlay to cover it and the row's first reach dots. The
// overlay grows to the next whole quarter row, so a row grows at most
// four times; a sealed record's rows, damaged over the first half of
// the row, hold half a row, sized once from the record's reach.
func (m *Medium) extraFor(row, col, reach int) *overlayDot {
	ov := m.overlay[row]
	if ov == nil {
		ov = &rowOverlay{}
		m.overlay[row] = ov
	}
	if col >= len(ov.dots) {
		q := (m.p.Cols + 3) / 4
		grown := make([]overlayDot, min(m.p.Cols, (max(col, reach-1)/q+1)*q))
		copy(grown, ov.dots)
		ov.dots = grown
	}
	return &ov.dots[col]
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
// at a healthy dot's level (see overlayDot.fullAmplitude). A row with
// no heated or stuck dot answers without looking at its overlay.
func (m *Medium) fullAmplitude(row, col, cnt int) bool {
	ov := m.overlay[row]
	if ov == nil || ov.irregular == 0 {
		return true
	}
	for j := col; j < min(col+cnt, len(ov.dots)); j++ {
		if !ov.dots[j].fullAmplitude() {
			return false
		}
	}
	return true
}

// anyHeated reports whether any dot col..col+cnt-1 of row is heated,
// from the row's heated bitset.
func (m *Medium) anyHeated(row, col, cnt int) bool {
	ov := m.overlay[row]
	if ov == nil || ov.heated == nil {
		return false
	}
	for w := col >> 6; w <= (col+cnt-1)>>6; w++ {
		if ov.heated[w]&spanMask(w, col, cnt) != 0 {
			return true
		}
	}
	return false
}

// spanMask is the mask of the bits of word w that fall in columns
// [col, col+cnt) of a row (cnt > 0).
func spanMask(w, col, cnt int) uint64 {
	mask := ^uint64(0)
	if lo := col - w<<6; lo > 0 {
		mask >>= lo
	}
	if hi := col + cnt - w<<6; hi < 64 {
		mask &^= ^uint64(0) >> hi
	}
	return mask
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
// write-ability of the adjacent dot could be affected"). EWB is the
// one-dot case of EWBRange.
func (m *Medium) EWB(i int) {
	m.EWBRange(i, []uint64{1 << 63})
}

// EWBRange heats dot base+k for every set bit k of heat (bit 63-k%64 of
// heat[k/64], the packing of ERBRange's verdicts), in index order and
// under one hold of the noise lock: the stored state and the noise
// stream's position afterwards are exactly those of EWB on each such
// dot in turn. It panics on a set bit past the medium's last dot.
func (m *Medium) EWBRange(base int, heat []uint64) {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	// Size each row's overlay once for the whole range (extraFor): a
	// row before the last set bit's is heated to its end, and the last
	// row and its neighbours are reached up to the dot right of the
	// last set bit.
	last := len(heat) - 1
	for last >= 0 && heat[last] == 0 {
		last--
	}
	if last < 0 {
		return
	}
	lastRow, lastCol := m.loc(base + last<<6 + 63 - bits.TrailingZeros64(heat[last]))
	for w, word := range heat {
		for word != 0 {
			b := bits.LeadingZeros64(word)
			word &^= 1 << (63 - b)
			row, col := m.loc(base + w<<6 + b)
			reach := min(m.p.Cols, lastCol+2)
			if row < lastRow {
				reach = m.p.Cols
			}
			m.ewb(row, col, reach)
		}
	}
}

// ewb is EWB of dot (row, col): the pulse, then the spill into the
// neighbours above, below, left and right, in that order. reach sizes
// any overlay the pulses create. Caller holds rngMu.
func (m *Medium) ewb(row, col, reach int) {
	m.pulse(row, col, m.heat, reach)
	if row > 0 {
		m.spillInto(row-1, col, reach)
	}
	if row+1 < m.p.Rows {
		m.spillInto(row+1, col, reach)
	}
	if col > 0 {
		m.spillInto(row, col-1, reach)
	}
	if col+1 < m.p.Cols {
		m.spillInto(row, col+1, reach)
	}
}

// spillInto applies a neighbour's heat to dot (row, col): the
// attenuated pulse, then the crosstalk draw that may flip its
// magnetisation. reach sizes an overlay the pulse creates. Caller
// holds rngMu.
func (m *Medium) spillInto(row, col, reach int) {
	if m.p.NeighborTempFactor > 0 {
		m.pulse(row, col, m.spill, reach)
	}
	if m.p.ThermalCrosstalk > 0 && m.rng.Float64() < m.p.ThermalCrosstalk {
		if !m.heatedAt(row, col) {
			m.setUp(row, col, !m.up(row, col))
		}
	}
}

// pulse applies heat pulse p to dot (row, col), accumulating
// interface-mixing damage. Crossing the destruction threshold tallies
// the dot as heated and fixes the in-plane orientation the
// magnetisation falls into. A pulse that leaves the stored damage
// unchanged creates no overlay; one that creates it sizes it to reach
// dots. Caller holds rngMu.
func (m *Medium) pulse(row, col int, p physics.Pulse, reach int) {
	var cur float32
	e := m.extra(row, col)
	if e != nil {
		if e.heated() {
			return
		}
		cur = e.damage
	}
	next := p.Damage(float64(cur))
	if next <= float64(cur) || float32(next) == cur {
		return
	}
	if e == nil {
		e = m.extraFor(row, col, reach)
	}
	e.damage = float32(next)
	if e.heated() {
		m.overlay[row].crossed(col, m.wordsPerRow)
		if m.rng.Bool() {
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
	var h [1]uint64
	m.ERBRange(i, 1, 1, h[:])
	return h[0] != 0
}

// ERBRange electrically reads dots [base, base+n) in index order into
// dst as packed verdicts: each dot gets up to retries attempts of the
// ERB protocol, and bit 63-k%64 of dst[k/64] is set when dot base+k
// reads heated, as soon as one attempt fails verification. The bits of
// dst's first ceil(n/64) words past the range are cleared. The
// verdicts, the stored state and the noise stream's position afterwards
// are exactly those of calling ERB up to retries times per dot in index
// order.
//
// The range is walked row by row under one hold of the noise lock. When
// the noise cannot flip a healthy dot (ReadNoiseSigma·sim.NormBound <
// SignalAmplitude), a dot that reads at full amplitude (no heated or
// stuck record) passes every attempt whatever the draws and its two
// writes cancel, so it settles without touching the medium: not heated,
// its 3·retries draws skipped together with those of the full-amplitude
// dots next to it. A row piece with no heated or stuck dot settles
// whole. Without read noise a heated dot's level is constant and writes
// to it are no-ops, so its first attempt reads the original back as the
// inverse and fails with no draw and no change: it is heated without
// running the protocol. A noiseless row piece whose row holds no stuck
// dot that is not heated therefore reads as the row's heated bitset,
// copied a word at a time. Stuck dots that are not heated, and every
// dot of a noisier medium, run the protocol itself.
func (m *Medium) ERBRange(base, n, retries int, dst []uint64) {
	clear(dst[:(n+63)>>6])
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
	m.segments(base, n, func(row, col, k, cnt int) {
		ov := m.overlay[row]
		switch {
		case m.skipNoise && (ov == nil || ov.irregular == 0):
			settled += cnt
			return
		case sigma == 0 && ov.coolStuck == 0:
			orBits(dst, k, ov.heated, col, cnt)
			return
		}
		for j := 0; j < cnt; j++ {
			e := m.extra(row, col+j)
			var heated bool
			switch {
			case m.skipNoise && (e == nil || e.fullAmplitude()):
				settled++
				continue
			case sigma == 0 && e != nil && e.heated():
				heated = true
			default:
				skip()
				heated = m.erb(row, col+j, retries)
			}
			if heated {
				dst[(k+j)>>6] |= 1 << (63 - (k+j)&63)
			}
		}
	})
	skip()
}

// orBits ORs bits [s, s+n) of src into dst from bit d on, both packed
// MSB-first (bit 63-i%64 of word i/64 is bit i). Whole words move at a
// time; bits of src past its last word read as zero.
func orBits(dst []uint64, d int, src []uint64, s, n int) {
	for n > 0 {
		c := min(n, 64)
		var w uint64
		if i := s >> 6; i < len(src) {
			w = src[i] << (s & 63)
			if i+1 < len(src) {
				w |= src[i+1] >> (64 - s&63)
			}
		}
		w &^= ^uint64(0) >> c
		dst[d>>6] |= w >> (d & 63)
		if d&63+c > 64 {
			dst[d>>6+1] |= w << (64 - d&63)
		}
		s, d, n = s+c, d+c, n-c
	}
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
		if ov != nil {
			for _, w := range ov.heated {
				n += bits.OnesCount64(w)
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
