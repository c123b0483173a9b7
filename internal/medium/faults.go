package medium

import "fmt"

// Fault injection. Real patterned media have defective dots (missing,
// merged, or pinned); the device layer's ECC and bad-block handling
// must cope, and crucially must distinguish a *bad* block from a
// *heated* one (§3 "a heated block should not be misinterpreted as a
// bad block"). Tests drive these hooks.

// StuckKind describes a dot defect.
type StuckKind int8

// Defect kinds.
const (
	// StuckNone marks a healthy dot.
	StuckNone StuckKind = iota
	// StuckUp pins the read signal at +amplitude regardless of writes.
	StuckUp
	// StuckDown pins the read signal at -amplitude.
	StuckDown
	// StuckDead makes the dot produce no signal at all (missing dot),
	// indistinguishable from a heated dot at read time — the hard case
	// for bad-block discrimination.
	StuckDead
)

// SetStuck injects a defect into dot i. Passing StuckNone clears it.
func (m *Medium) SetStuck(i int, k StuckKind) {
	switch k {
	case StuckNone, StuckUp, StuckDown, StuckDead:
	default:
		panic(fmt.Sprintf("medium: unknown stuck kind %d", int(k)))
	}
	row, col := m.loc(i)
	e := m.extra(row, col)
	if e == nil {
		if k == StuckNone {
			return
		}
		e = m.extraFor(row, col, 0)
	}
	ov := m.overlay[row]
	ov.untally(col)
	e.stuck = k
	ov.tally(col, m.wordsPerRow)
}

// Stuck returns the defect status of dot i.
func (m *Medium) Stuck(i int) StuckKind {
	if e := m.extra(m.loc(i)); e != nil {
		return e.stuck
	}
	return StuckNone
}

// CorruptMagnetic flips the magnetisation of dot i directly, bypassing
// the write path. Models media decay or an attacker with a raw write
// head. No effect on heated dots (nothing to flip).
func (m *Medium) CorruptMagnetic(i int) {
	row, col := m.loc(i)
	if !m.heatedAt(row, col) {
		m.setUp(row, col, !m.up(row, col))
	}
}

// ReplaceRegion swaps factory-fresh dots into [lo, hi): pristine
// magnetisation, no damage, no defects. This is the physical
// substrate of sled repair — patterned media are manufactured
// as regular matrices, so a service action can splice in a spare
// region (or a whole spare sled) where dots were destroyed. Heating is
// still irreversible on any given dot; replacement swaps the dots
// themselves, which is exactly as loud as the paper's threat model
// demands (the old region's evidence is gone *with the old dots*, so
// honest repair must re-establish the heat records on the new region,
// and does — see the device's ReplaceLine). A row left with no damaged
// or defective dot drops its overlay; any other touched row untallies
// the records it clears.
func (m *Medium) ReplaceRegion(lo, hi int) {
	if lo < 0 || hi > m.Dots() || lo > hi {
		panic(fmt.Sprintf("medium: replace region [%d,%d) outside %d dots", lo, hi, m.Dots()))
	}
	m.segments(lo, hi-lo, func(row, col, _, cnt int) {
		for c := col; c < col+cnt; c++ {
			m.setUp(row, c, false)
		}
		ov := m.overlay[row]
		if ov == nil || col >= len(ov.dots) {
			return
		}
		for c := col; c < min(col+cnt, len(ov.dots)); c++ {
			ov.untally(c)
			ov.dots[c] = overlayDot{}
		}
		for i := range ov.dots {
			if ov.dots[i] != (overlayDot{}) {
				return
			}
		}
		m.overlay[row] = nil
	})
}
