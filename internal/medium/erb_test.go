package medium

import (
	"bytes"
	"slices"
	"testing"

	"sero/internal/sim"
)

// erbRef is the per-dot reference for ERBRange: up to retries attempts
// of the §3 protocol spelled out with MRB and MWB.
func erbRef(m *Medium, i, retries int) bool {
	for r := 0; r < retries; r++ {
		orig := m.MRB(i)
		m.MWB(i, !orig)
		inv := m.MRB(i)
		m.MWB(i, orig)
		again := m.MRB(i)
		if inv == orig || again != orig {
			return true
		}
	}
	return false
}

// FuzzERBRange checks the ranged electrical read against the per-dot
// reference on random stored bits and a random overlay (heated dots,
// every stuck kind, partial damage), over ranges that cross row
// boundaries, with no read noise, noise below the bound under which a
// full-amplitude dot may settle without its draws, and noise far above
// it: the packed verdicts, the stored state and the next noise draw
// must all match. The one-attempt ERB is checked the same way.
func FuzzERBRange(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(56), uint16(0), uint16(40), uint8(7), []byte{})
	f.Add(uint64(2), uint8(1), uint8(56), uint16(30), uint16(200), uint8(7), []byte{0, 10, 0, 12, 1, 14, 2, 16, 3, 18, 0, 70})
	f.Add(uint64(3), uint8(2), uint8(56), uint16(30), uint16(200), uint8(7), []byte{0, 10, 0, 12, 1, 14, 2, 16, 3, 18, 0, 70})
	f.Add(uint64(4), uint8(4), uint8(100), uint16(90), uint16(300), uint8(3), []byte{0, 40, 0, 41, 0, 42, 4, 50})
	f.Add(uint64(5), uint8(1), uint8(0), uint16(5), uint16(31), uint8(0), []byte{1, 10, 2, 11, 3, 12, 0, 13})
	f.Add(uint64(6), uint8(3), uint8(200), uint16(250), uint16(900), uint8(1), []byte{0, 100, 3, 101, 0, 140, 0, 200})
	// Clearing a defect (0x81), replacing part of a row (0x8e) or rows
	// (0xa0) and a snapshot round trip (0x83): noiseless, noisy, and
	// noiseless with weak pulses.
	f.Add(uint64(7), uint8(0), uint8(56), uint16(0), uint16(256), uint8(7), []byte{0, 10, 1, 12, 0x81, 12, 3, 14, 0x8e, 8, 0, 40, 0x83, 0, 0, 44})
	f.Add(uint64(8), uint8(1), uint8(100), uint16(20), uint16(300), uint8(3), []byte{0, 60, 0, 61, 0xa0, 32, 2, 70, 0x83, 0, 0x81, 70, 0, 90})
	f.Add(uint64(9), uint8(6), uint8(56), uint16(0), uint16(256), uint8(2), []byte{0, 10, 0, 10, 0, 10, 3, 11, 0x83, 0, 0, 10, 0, 10, 0x81, 11, 0x82, 20})
	f.Fuzz(checkERBRange)
}

// TestERBRangeCopiesHeatedBitset runs the FuzzERBRange check on
// noiseless media whose only irregular dots are heated, so every row
// piece the range touches is read by copying its row's heated bitset:
// rows of 64 dots and of widths that are not a whole number of words,
// heats in runs that may straddle word boundaries, and ranges at random
// offsets within a word.
func TestERBRangeCopiesHeatedBitset(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		// Heats (kind 0) in runs of up to four neighbouring positions,
		// now and then a magnetic flip (kind 4).
		var ops []byte
		for range 1 + rng.Intn(12) {
			kind, pos := byte(0), byte(rng.Uint64())
			if rng.Intn(4) == 0 {
				kind = 4
			}
			for j := range 1 + rng.Intn(4) {
				ops = append(ops, kind, pos+byte(j))
			}
		}
		colSel := [4]uint8{56, 60, 100, 200}[trial%4]
		// Noiseless, odd trials with the weak pulse.
		mode := uint8(4 * (trial % 2))
		checkERBRange(t, uint64(trial), mode, colSel, uint16(rng.Uint64()), uint16(rng.Uint64()), uint8(rng.Intn(8)), ops)
	}
}

// checkERBRange is FuzzERBRange's check of one medium and range.
func checkERBRange(t *testing.T, seed uint64, mode, colSel uint8, baseSel, nSel uint16, retrySel uint8, ops []byte) {
	const rows = 4
	p := DefaultParams(rows, 8+int(colSel))
	p.Seed = seed
	// mode%3 picks the read noise: none, the default (below the
	// settling bound) or far above it; bit 2 weakens the pulse so
	// a heat leaves partial damage.
	p.ReadNoiseSigma = [3]float64{0, 0.05, 0.5}[mode%3]
	if mode&4 != 0 {
		p.PulseTempC = 700
	}
	m, _ := fuzzMedium(p, ops)
	base := int(baseSel) % m.Dots()
	n := int(nSel)%(m.Dots()-base) + 1
	retries := int(retrySel)%8 + 1

	a, b := clonePair(t, m)
	// got is one word longer than the range needs and starts dirty:
	// ERBRange must clear the range's words, padding included, and
	// leave the word past them alone.
	words := (n + 63) / 64
	got, want := make([]uint64, words+1), make([]uint64, words+1)
	for i := range got {
		got[i] = ^uint64(0)
	}
	want[words] = ^uint64(0)
	a.ERBRange(base, n, retries, got)
	for k := 0; k < n; k++ {
		if erbRef(b, base+k, retries) {
			want[k/64] |= 1 << (63 - k%64)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ERBRange(%d, %d, %d) %x, per-dot reference %x", base, n, retries, got, want)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("ERBRange and the per-dot reference left different media")
	}
	if x, y := a.MRBAnalog(0), b.MRBAnalog(0); x != y {
		t.Fatalf("next draw %v after ERBRange, %v after the per-dot reference", x, y)
	}

	a, b = clonePair(t, m)
	for k := 0; k < n; k++ {
		if x, y := a.ERB(base+k), erbRef(b, base+k, 1); x != y {
			t.Fatalf("ERB(%d) %v, per-dot reference %v", base+k, x, y)
		}
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("ERB and the per-dot reference left different media")
	}
	if x, y := a.MRBAnalog(0), b.MRBAnalog(0); x != y {
		t.Fatalf("next draw %v after ERB, %v after the per-dot reference", x, y)
	}
}

// TestEWBRangeMatchesEWB heats random sparse and dense masks over
// ranges that cross rows and start at any offset within a word, on
// noisy, quiet and weak-pulse media, and checks that EWBRange leaves
// the medium and the noise stream exactly as EWB on each set dot in
// index order does.
func TestEWBRangeMatchesEWB(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		p := DefaultParams(4, 60+rng.Intn(80))
		p.Seed = uint64(trial)
		switch trial % 3 {
		case 1:
			p = p.Quiet()
		case 2:
			p.PulseTempC = 700
		}
		m, _ := fuzzMedium(p, []byte{0, byte(rng.Uint64()), 2, byte(rng.Uint64())})
		base := rng.Intn(m.Dots())
		n := 1 + rng.Intn(m.Dots()-base)
		heat := make([]uint64, (n+63)/64)
		density := 1 + rng.Intn(4)
		for k := 0; k < n; k++ {
			if rng.Intn(4) < density {
				heat[k/64] |= 1 << (63 - k%64)
			}
		}
		a, b := clonePair(t, m)
		a.EWBRange(base, heat)
		for k := 0; k < n; k++ {
			if heat[k/64]&(1<<(63-k%64)) != 0 {
				b.EWB(base + k)
			}
		}
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("trial %d: EWBRange(%d, %x) and per-dot EWB left different media", trial, base, heat)
		}
		if x, y := a.MRBAnalog(0), b.MRBAnalog(0); x != y {
			t.Fatalf("trial %d: next draw %v after EWBRange, %v after per-dot EWB", trial, x, y)
		}
		checkIrregular(t, a, "EWBRange")
	}
}
