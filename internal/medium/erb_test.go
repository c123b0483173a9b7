package medium

import (
	"bytes"
	"slices"
	"testing"
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
// it: the verdicts, the stored state and the next noise draw must all
// match. The one-attempt ERB is checked the same way.
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
	f.Fuzz(func(t *testing.T, seed uint64, mode, colSel uint8, baseSel, nSel uint16, retrySel uint8, ops []byte) {
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
		got, want := make([]bool, n), make([]bool, n)
		a.ERBRange(base, retries, got)
		for k := range want {
			want[k] = erbRef(b, base+k, retries)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("ERBRange(%d, %d) %v, per-dot reference %v", base, retries, got, want)
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
	})
}
