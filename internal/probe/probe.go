// Package probe models the µSPAM probe-storage device of §6: a MEMS
// sled carrying the patterned medium under a large array of MFM
// probes, with an electrostatic stepper actuator (µWalker/Harmonica
// style) providing X-Y motion.
//
// The package owns the latency model. The systems results in the paper
// depend on relative costs — erb is "at least 5 times slower than mrb",
// ewb is slower than mwb "because of the local heating process" — and
// the timing model preserves exactly those ratios while deriving
// absolute values from published probe-storage numbers [39].
package probe

import (
	"fmt"
	"math"
	"time"

	"sero/internal/sim"
)

// Timing holds the per-operation latency parameters of the device.
type Timing struct {
	// BitCell is the time for one magnetic bit operation (read or
	// write) on one probe. Probe-storage channels run at tens to
	// hundreds of kbit/s per tip [39]; 10 µs/bit = 100 kbit/s.
	BitCell time.Duration

	// HeatDwell is the extra dwell required for one electrical write
	// (current pulse raising the dot above the interface-mixing
	// temperature). Dominates ewb.
	HeatDwell time.Duration

	// SeekPerMicron is the sled travel time per micron of the longer
	// axis of the move (the two axes move concurrently).
	SeekPerMicron time.Duration

	// Settle is the post-seek settling time of the sled. Moves no
	// longer than StreamThresholdMicrons skip it: during sequential
	// scanning the sled glides at constant velocity and never stops to
	// settle.
	Settle time.Duration

	// StreamThresholdMicrons is the longest move still considered part
	// of a continuous scan (no settle).
	StreamThresholdMicrons float64
}

// DefaultTiming returns the timing model used throughout the
// experiments: 10 µs magnetic bit cells, 100 µs heat dwell (so
// ewb = 11 bit-times), 20 µs/µm seeks and 200 µs settle.
func DefaultTiming() Timing {
	return Timing{
		BitCell:                10 * time.Microsecond,
		HeatDwell:              100 * time.Microsecond,
		SeekPerMicron:          20 * time.Microsecond,
		Settle:                 200 * time.Microsecond,
		StreamThresholdMicrons: 0.5,
	}
}

// MRB returns the latency of one magnetic bit read.
func (t Timing) MRB() time.Duration { return t.BitCell }

// MWB returns the latency of one magnetic bit write.
func (t Timing) MWB() time.Duration { return t.BitCell }

// EWB returns the latency of one electrical bit write: a bit cell plus
// the heat dwell.
func (t Timing) EWB() time.Duration { return t.BitCell + t.HeatDwell }

// ERB returns the latency of one electrical bit read: the 5-step
// protocol of §3 costs 3 reads and 2 writes, hence exactly 5 bit cells
// — the paper's "at least 5 times slower than mrb".
func (t Timing) ERB() time.Duration { return 5 * t.BitCell }

// Geometry describes the probe array and the sled travel range.
type Geometry struct {
	// ProbeRows, ProbeCols give the probe-array dimensions. Each probe
	// services its own rectangular field of dots, so an array of
	// R×C probes reads/writes R×C bits concurrently.
	ProbeRows, ProbeCols int

	// FieldMicrons is the side of the square dot field under one probe
	// (also the maximum sled excursion per axis).
	FieldMicrons float64
}

// DefaultGeometry returns a 32×32 probe array with 100 µm fields,
// matching the µSPAM sketch in Fig 4 (1 cm die, mm-scale sled).
func DefaultGeometry() Geometry {
	return Geometry{ProbeRows: 32, ProbeCols: 32, FieldMicrons: 100}
}

// Probes returns the number of probes (the per-bit parallelism).
func (g Geometry) Probes() int { return g.ProbeRows * g.ProbeCols }

// Position is a sled position in microns.
type Position struct {
	// X is the position along the sled's first axis, in microns.
	X float64
	// Y is the position along the sled's second axis, in microns.
	Y float64
}

// Actuator models the electrostatic stepper moving the media sled.
type Actuator struct {
	timing Timing
	geo    Geometry
	clock  *sim.Clock
	pos    Position

	seeks     uint64
	seekTime  time.Duration
	travelSum float64
}

// NewActuator returns an actuator at the origin.
func NewActuator(t Timing, g Geometry, c *sim.Clock) *Actuator {
	if g.Probes() <= 0 {
		panic(fmt.Sprintf("probe: invalid geometry %+v", g))
	}
	return &Actuator{timing: t, geo: g, clock: c}
}

// SeekTo moves the sled to p, advancing the clock by the travel time of
// the longer axis plus settle. Seeking to the current position is free:
// the device exploits this for sequential access.
func (a *Actuator) SeekTo(p Position) {
	if p.X < 0 || p.Y < 0 || p.X > a.geo.FieldMicrons || p.Y > a.geo.FieldMicrons {
		panic(fmt.Sprintf("probe: seek to %+v outside %g µm field", p, a.geo.FieldMicrons))
	}
	dx := math.Abs(p.X - a.pos.X)
	dy := math.Abs(p.Y - a.pos.Y)
	d := math.Max(dx, dy)
	if d == 0 {
		return
	}
	cost := time.Duration(d * float64(a.timing.SeekPerMicron))
	if d > a.timing.StreamThresholdMicrons {
		cost += a.timing.Settle
	}
	a.clock.Advance(cost)
	a.pos = p
	a.seeks++
	a.seekTime += cost
	a.travelSum += d
}

// SeekStats reports cumulative seek count, time and travel.
func (a *Actuator) SeekStats() (seeks uint64, total time.Duration, microns float64) {
	return a.seeks, a.seekTime, a.travelSum
}

// Array couples the actuator with the medium geometry: it maps linear
// dot indices to (sled position, probe) pairs and charges seek plus
// transfer latency for batched bit operations.
//
// Dot layout: dots are striped across probes so that consecutive bits
// of a sector land under distinct probes at the same sled position —
// one sled position serves Probes() bits in parallel, which is how
// probe storage achieves hard-disk-class data rates from slow tips.
type Array struct {
	act      *Actuator
	timing   Timing
	geo      Geometry
	clock    *sim.Clock
	pitchNM  float64
	dotsSide int // dots per field side
}

// NewArray builds the probe array model. pitchNM is the medium dot
// pitch; it determines how many sled positions a field offers.
func NewArray(t Timing, g Geometry, pitchNM float64, c *sim.Clock) *Array {
	if pitchNM <= 0 {
		panic("probe: non-positive pitch")
	}
	side := int(g.FieldMicrons * 1000 / pitchNM)
	if side <= 0 {
		panic("probe: field smaller than one dot")
	}
	return &Array{
		act:      NewActuator(t, g, c),
		timing:   t,
		geo:      g,
		clock:    c,
		pitchNM:  pitchNM,
		dotsSide: side,
	}
}

// Capacity returns the number of dots addressable by the array.
func (a *Array) Capacity() int {
	return a.geo.Probes() * a.dotsSide * a.dotsSide
}

// PositionOf maps a linear dot index to its sled position. Consecutive
// indices stripe across probes first, then advance the sled along a
// serpentine raster so sequential access rarely seeks.
func (a *Array) PositionOf(dotIndex int) Position {
	if dotIndex < 0 || dotIndex >= a.Capacity() {
		panic(fmt.Sprintf("probe: dot index %d outside capacity %d", dotIndex, a.Capacity()))
	}
	cell := dotIndex / a.geo.Probes() // which sled position
	row := cell / a.dotsSide
	col := cell % a.dotsSide
	if row%2 == 1 { // serpentine
		col = a.dotsSide - 1 - col
	}
	step := a.pitchNM / 1000 // µm per dot
	return Position{X: float64(col) * step, Y: float64(row) * step}
}

// Batch represents one hardware transfer: a set of dots grouped by sled
// position. Seek is charged once per distinct position; transfer is
// charged per ceil(bitsAtPosition / probes) bit-cell rounds.
type opKind int

const (
	opMRB opKind = iota
	opMWB
	opERB
	opEWB
)

func (a *Array) opLatency(k opKind) time.Duration {
	switch k {
	case opMRB:
		return a.timing.MRB()
	case opMWB:
		return a.timing.MWB()
	case opERB:
		return a.timing.ERB()
	case opEWB:
		return a.timing.EWB()
	default:
		panic("probe: unknown op kind")
	}
}

// ChargeBits charges seek and transfer latency for an operation of kind
// k over the dot index range [first, first+count). The range is walked
// in order; each sled-position change costs a seek, and each position
// transfers up to Probes() bits in parallel per bit-cell round.
func (a *Array) chargeBits(k opKind, first, count int) {
	if count <= 0 {
		return
	}
	per := a.opLatency(k)
	probes := a.geo.Probes()
	// Indices wrap modulo the array capacity: media larger than one
	// probe field are tiled across repeated sled sweeps, and latency
	// accounting only needs the positional pattern, not a unique
	// address per dot.
	i := first
	for i < first+count {
		pos := a.PositionOf(i % a.Capacity())
		a.act.SeekTo(pos)
		// All dots of this sled cell share the position; they move in
		// one parallel round.
		cellStart := (i / probes) * probes
		cellEnd := cellStart + probes
		n := first + count
		if cellEnd < n {
			n = cellEnd
		}
		a.clock.Advance(per) // one parallel round
		i = n
	}
}

// ChargeWriteSetup charges the servo settle that precedes one write
// command. Reads track on the fly — the detection channel tolerates
// residual sled motion — but committing magnetisation (and a fortiori
// an irreversible heat pulse) needs the sled locked and settled over
// the target dots, so every write *command* pays one Settle before its
// first bit; the bits within the command then stream. This is what
// makes batched multi-sector writes pay off: one command covering a
// contiguous run settles once, where the same run written
// sector-at-a-time settles once per sector.
func (a *Array) ChargeWriteSetup() { a.clock.Advance(a.timing.Settle) }

// ChargeMagneticRead charges the latency of magnetically reading count
// dots starting at first.
func (a *Array) ChargeMagneticRead(first, count int) { a.chargeBits(opMRB, first, count) }

// ChargeMagneticWrite charges the latency of magnetically writing count
// dots starting at first.
func (a *Array) ChargeMagneticWrite(first, count int) { a.chargeBits(opMWB, first, count) }

// ChargeElectricRead charges the latency of the erb protocol over count
// dots starting at first.
func (a *Array) ChargeElectricRead(first, count int) { a.chargeBits(opERB, first, count) }

// ChargeElectricWrite charges the latency of electrically writing
// (heating) count dots starting at first.
func (a *Array) ChargeElectricWrite(first, count int) { a.chargeBits(opEWB, first, count) }

// SeekStats exposes the actuator's cumulative seek statistics.
func (a *Array) SeekStats() (seeks uint64, total time.Duration, microns float64) {
	return a.act.SeekStats()
}
