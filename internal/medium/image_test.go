package medium

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sero/internal/sim"
)

// mrbLoop is the per-dot reference for MRBImage.
func mrbLoop(m *Medium, base int, dst []byte) {
	clear(dst)
	for j := 0; j < 8*len(dst); j++ {
		if m.MRB(base + j) {
			dst[j/8] |= 0x80 >> (j % 8)
		}
	}
}

// mwbLoop is the per-dot reference for MWBImage.
func mwbLoop(m *Medium, base int, src []byte) {
	for j := 0; j < 8*len(src); j++ {
		m.MWB(base+j, src[j/8]&(0x80>>(j%8)) != 0)
	}
}

// clonePair returns two independent copies of m made through a
// snapshot, each with a freshly seeded noise stream.
func clonePair(t *testing.T, m *Medium) (*Medium, *Medium) {
	t.Helper()
	snap := m.Snapshot()
	a, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// fuzzMedium returns a medium with random stored bits, damaged by ops:
// byte pairs (kind, position). A kind below 0x80 heats the dot, makes it
// stuck Up, Down or Dead, or flips its magnetisation (kind%5 from 0 to
// 4); from 0x80 up it clears the dot's defect, replaces the dots from
// it to kind>>2&15 eighths of a row further (at least one dot, at most
// the medium's end), or round-trips the medium through a snapshot
// (kind%3 from 0 to 2). The returned generator continues the stream
// that drew the bits.
func fuzzMedium(p Params, ops []byte) (*Medium, *sim.RNG) {
	m := New(p)
	rng := sim.NewRNG(p.Seed)
	for i := 0; i < m.Dots(); i++ {
		m.MWB(i, rng.Bool())
	}
	for k := 0; k+1 < len(ops); k += 2 {
		i := int(ops[k+1]) * m.Dots() / 256
		if kind := ops[k]; kind < 0x80 {
			switch kind % 5 {
			case 0:
				m.EWB(i)
			case 1, 2, 3:
				m.SetStuck(i, StuckKind(kind%5))
			case 4:
				m.CorruptMagnetic(i)
			}
		} else {
			switch kind % 3 {
			case 0:
				m.SetStuck(i, StuckNone)
			case 1:
				m.ReplaceRegion(i, min(m.Dots(), i+1+int(kind>>2&15)*p.Cols/8))
			case 2:
				var err error
				if m, err = RestoreSnapshot(m.Snapshot()); err != nil {
					panic(err)
				}
			}
		}
	}
	return m, rng
}

// FuzzMRBImage checks the block image methods against per-dot loops on
// random stored bits and a random overlay (heated dots, every stuck
// kind, partial damage), with read noise on both sides of the bound
// below which a clean read may skip its draws: the decoded image, the
// written state and the next noise draw must all match.
func FuzzMRBImage(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(56), uint16(0), uint16(15), []byte{})
	f.Add(uint64(1), uint8(1), uint8(56), uint16(0), uint16(15), []byte{})
	f.Add(uint64(2), uint8(0), uint8(56), uint16(0), uint16(15), []byte{1, 10, 1, 20, 1, 30, 2, 40, 2, 50, 3, 60})
	f.Add(uint64(3), uint8(2), uint8(100), uint16(100), uint16(23), []byte{0, 130, 0, 140, 5, 3, 9, 200})
	f.Add(uint64(4), uint8(3), uint8(4), uint16(3), uint16(39), []byte{1, 10, 2, 11, 3, 12, 4, 70})
	f.Add(uint64(5), uint8(0), uint8(56), uint16(64), uint16(15), []byte{0, 80, 0, 90, 0, 100, 0, 110})
	// Clearing a defect (0x81), replacing part of a row (0x8e, three
	// eighths) or rows (0xa0, a whole row's length) and a snapshot round
	// trip (0x83) between heats and defects.
	f.Add(uint64(7), uint8(0), uint8(56), uint16(0), uint16(15), []byte{0, 10, 1, 12, 0x81, 12, 3, 14, 0x8e, 8, 0, 40, 0x83, 0, 0, 44})
	f.Add(uint64(8), uint8(3), uint8(100), uint16(20), uint16(40), []byte{0, 60, 0, 61, 0xa0, 32, 2, 70, 0x83, 0, 0x81, 70, 0, 90})
	f.Fuzz(func(t *testing.T, seed uint64, mode, colSel uint8, baseSel, nSel uint16, ops []byte) {
		const rows = 4
		cols := 8 + int(colSel)
		p := DefaultParams(rows, cols)
		p.Seed = seed
		// Bit 0 of mode puts σ·NormBound far above the signal
		// amplitude, so no read may skip its draws and the draws flip
		// bits; bit 1 weakens the pulse so a heat leaves partial
		// damage.
		if mode&1 != 0 {
			p.ReadNoiseSigma = 0.5
		}
		if mode&2 != 0 {
			p.PulseTempC = 700
		}
		m, rng := fuzzMedium(p, ops)
		base := int(baseSel) % m.Dots()
		n := min(int(nSel)%64+1, (m.Dots()-base)/8)
		if n == 0 {
			return
		}

		img, ref := make([]byte, n), make([]byte, n)
		a, b := clonePair(t, m)
		a.MRBImage(base, img)
		mrbLoop(b, base, ref)
		if !bytes.Equal(img, ref) {
			t.Fatalf("MRBImage %x, per-dot MRB %x", img, ref)
		}
		if x, y := a.MRBAnalog(0), b.MRBAnalog(0); x != y {
			t.Fatalf("next draw %v after MRBImage, %v after the per-dot loop", x, y)
		}

		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		a, b = clonePair(t, m)
		a.MWBImage(base, src)
		mwbLoop(b, base, src)
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatal("MWBImage and the per-dot MWB loop left different media")
		}
	})
}

// TestMRBImageSkipsExactly pins the fast path's bookkeeping on the
// standard geometry: a clean row read with default noise must leave the
// stream exactly where 4736 MRB calls leave it, and a row next to a
// heated dot must go dot by dot and agree too.
func TestMRBImageSkipsExactly(t *testing.T) {
	const cols = 4736
	m := New(DefaultParams(4, cols))
	rng := sim.NewRNG(9)
	src := make([]byte, cols/8)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	for row := 0; row < 4; row++ {
		m.MWBImage(m.Index(row, 0), src)
	}
	m.EWB(m.Index(2, 500))
	for _, row := range []int{0, 1, 2, 3} {
		a, b := clonePair(t, m)
		img, ref := make([]byte, cols/8), make([]byte, cols/8)
		a.MRBImage(a.Index(row, 0), img)
		mrbLoop(b, b.Index(row, 0), ref)
		if !bytes.Equal(img, ref) {
			t.Fatalf("row %d: image differs from the per-dot read", row)
		}
		if row == 0 && !bytes.Equal(img, src) {
			t.Fatal("clean row did not read back what was written")
		}
		if x, y := a.MRBAnalog(0), b.MRBAnalog(0); x != y {
			t.Fatalf("row %d: next draw %v, want %v", row, x, y)
		}
	}
}

// TestAdjacentRowsConcurrent writes and reads neighbouring rows from
// concurrent goroutines on a medium whose rows are not a whole number
// of words. Under the race detector it proves two rows never share a
// word: the row padding is what makes per-row locking sufficient.
func TestAdjacentRowsConcurrent(t *testing.T) {
	const rows, cols = 8, 100
	m := New(DefaultParams(rows, cols))
	var wg sync.WaitGroup
	errs := make([]error, rows)
	for row := 0; row < rows; row++ {
		wg.Add(1)
		go func(row int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(row) + 1)
			base := m.Index(row, 0)
			img := make([]byte, cols/8)
			for round := 0; round < 50; round++ {
				want := make([]byte, cols/8)
				for i := range want {
					want[i] = byte(rng.Uint64())
				}
				m.MWBImage(base, want)
				// The four dots past the image share the row's last word.
				for c := 8 * len(want); c < cols; c++ {
					m.MWB(base+c, round%2 == 0)
				}
				m.MRBImage(base, img)
				if !bytes.Equal(img, want) {
					errs[row] = fmt.Errorf("round %d: read %x, wrote %x", round, img, want)
					return
				}
				for c := 8 * len(want); c < cols; c++ {
					if m.MRB(base+c) != (round%2 == 0) {
						errs[row] = fmt.Errorf("round %d: tail dot %d lost its bit", round, c)
						return
					}
				}
			}
		}(row)
	}
	wg.Wait()
	for row, err := range errs {
		if err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
	}
}
