package medium

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Medium state persistence. A snapshot captures the full physical
// state of every dot (magnetisation, heat damage, defects) so a
// simulated medium can be saved to a file and reattached later —
// including by a different host that then has to rediscover the heated
// lines with a scan, exactly the §5.2 recovery scenario.

const (
	snapMagic   = "SMED"
	snapVersion = 3
)

// ErrBadSnapshot reports an unparseable snapshot.
var ErrBadSnapshot = errors.New("medium: bad snapshot")

// Snapshot serialises the complete medium state.
func (m *Medium) Snapshot() []byte {
	var buf []byte
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.p.Rows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.p.Cols))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.PitchNM))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.SignalAmplitude))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.ReadNoiseSigma))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.ResidualInPlaneSignal))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.ThermalCrosstalk))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.PulseTempC))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.PulseSeconds))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p.NeighborTempFactor))
	buf = binary.BigEndian.AppendUint64(buf, m.p.Seed)
	for row := 0; row < m.p.Rows; row++ {
		for col := 0; col < m.p.Cols; col++ {
			var flags, damage byte
			if m.up(row, col) {
				flags |= 1
			}
			if e := m.extra(row, col); e != nil {
				if e.inPlaneSign > 0 {
					flags |= 4
				}
				flags |= byte(e.stuck) << 3
				damage = damageByte(e)
			}
			buf = append(buf, flags, damage)
		}
	}
	return buf
}

// RestoreSnapshot reconstructs a medium from a snapshot produced by
// Snapshot.
func RestoreSnapshot(buf []byte) (*Medium, error) {
	const header = 4 + 1 + 4 + 4 + 9*8
	if len(buf) < header || string(buf[0:4]) != snapMagic {
		return nil, fmt.Errorf("%w: header", ErrBadSnapshot)
	}
	if buf[4] != snapVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, buf[4])
	}
	off := 5
	rows := int(binary.BigEndian.Uint32(buf[off:]))
	cols := int(binary.BigEndian.Uint32(buf[off+4:]))
	off += 8
	readF := func() float64 {
		v := math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	p := Params{Rows: rows, Cols: cols}
	p.PitchNM = readF()
	p.SignalAmplitude = readF()
	p.ReadNoiseSigma = readF()
	p.ResidualInPlaneSignal = readF()
	p.ThermalCrosstalk = readF()
	p.PulseTempC = readF()
	p.PulseSeconds = readF()
	p.NeighborTempFactor = readF()
	p.Seed = binary.BigEndian.Uint64(buf[off:])
	off += 8

	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: geometry %dx%d", ErrBadSnapshot, rows, cols)
	}
	// Size arithmetic in uint64: rows and cols are attacker-controlled
	// 32-bit values, and rows*cols*2 can overflow on its way to
	// matching a short buffer. The product of two uint32s fits uint64
	// exactly, so cap it *before* the ×2 (which can wrap): 2^40 dots
	// is orders of magnitude beyond any simulatable medium.
	dots := uint64(rows) * uint64(cols)
	const maxSnapshotDots = 1 << 40
	if dots > maxSnapshotDots {
		return nil, fmt.Errorf("%w: %d dots", ErrBadSnapshot, dots)
	}
	need := uint64(off) + dots*2
	if uint64(len(buf)) != need {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrBadSnapshot, len(buf), need)
	}
	// Physical parameters must be usable, not merely parseable: New and
	// the probe-array model treat bad values as programming errors and
	// panic, but a snapshot is untrusted input and must fail softly.
	for _, v := range []float64{p.PitchNM, p.SignalAmplitude, p.ReadNoiseSigma,
		p.ResidualInPlaneSignal, p.ThermalCrosstalk, p.PulseTempC,
		p.PulseSeconds, p.NeighborTempFactor} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite parameter", ErrBadSnapshot)
		}
	}
	if p.SignalAmplitude <= 0 {
		return nil, fmt.Errorf("%w: signal amplitude %g", ErrBadSnapshot, p.SignalAmplitude)
	}
	// Pitch outside [0.1 nm, 100 µm] is unphysical, and extreme values
	// overflow the probe-array capacity arithmetic downstream.
	if p.PitchNM < 0.1 || p.PitchNM > 1e5 {
		return nil, fmt.Errorf("%w: pitch %g nm", ErrBadSnapshot, p.PitchNM)
	}
	if p.ReadNoiseSigma < 0 || p.ResidualInPlaneSignal < 0 || p.ThermalCrosstalk < 0 ||
		p.PulseSeconds < 0 || p.NeighborTempFactor < 0 {
		return nil, fmt.Errorf("%w: negative physical parameter", ErrBadSnapshot)
	}
	m := New(p)
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			flags, damage := buf[off], buf[off+1]
			off += 2
			m.setUp(row, col, flags&1 != 0)
			stuck := StuckKind(flags >> 3 & 3)
			if damage == 0 && flags&4 == 0 && stuck == StuckNone {
				continue
			}
			e := m.extraFor(row, col)
			e.damage = byteDamage(damage)
			if flags&4 != 0 {
				e.inPlaneSign = 1
			} else if e.heated() {
				e.inPlaneSign = -1
			}
			e.stuck = stuck
			m.overlay[row].tally(col, m.wordsPerRow)
		}
	}
	return m, nil
}

// damageByte quantises dot e's damage to 1/255 for a snapshot: the
// nearest step, moved one step back across the heated threshold when
// rounding crossed it. Rounding moves damage by at most half a step,
// so that one step restores the dot's side, and byteDamage of the byte
// is heated exactly when e is: a save and reload neither erases sealed
// evidence nor forges it.
func damageByte(e *overlayDot) byte {
	b := byte(float64(e.damage)*255 + 0.5)
	restored := overlayDot{damage: byteDamage(b)}
	switch {
	case e.heated() && !restored.heated():
		b++
	case !e.heated() && restored.heated():
		b--
	}
	return b
}

// byteDamage is the damage a snapshot's quantised byte b restores.
func byteDamage(b byte) float32 { return float32(b) / 255 }
