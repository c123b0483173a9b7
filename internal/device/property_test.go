package device

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"sero/internal/sim"
)

// Property-based test: random sequences of honest device operations
// must preserve the core invariants —
//
//  1. data written magnetically reads back identically until the block
//     joins a heated line;
//  2. heated lines always verify clean under honest operation;
//  3. blocks inside heated lines reject magnetic writes;
//  4. the heated-block set only grows.
func TestDeviceInvariantsUnderRandomOps(t *testing.T) {
	const blocks = 32
	f := func(seed uint64, script []uint16) bool {
		d := testDevice(t, blocks)
		rng := sim.NewRNG(seed)
		shadow := make(map[uint64][]byte) // expected content
		inLine := make(map[uint64]bool)   // block belongs to a heated line
		var lines []uint64
		heatedCount := 0

		for _, op := range script {
			switch op % 4 {
			case 0, 1: // write a random free block
				pba := uint64(rng.Intn(blocks))
				data := pattern(byte(op))
				err := d.MWS(pba, data)
				if inLine[pba] {
					if err == nil {
						t.Logf("write into heated line %d accepted", pba)
						return false
					}
					continue
				}
				if err != nil {
					return false
				}
				shadow[pba] = data
			case 2: // read back and compare
				pba := uint64(rng.Intn(blocks))
				want, ok := shadow[pba]
				if !ok || d.IsHeatedCached(pba) {
					continue
				}
				got, err := d.MRS(pba)
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("round trip failed at %d: %v", pba, err)
					return false
				}
			case 3: // heat a fresh aligned 4-block line if possible
				start := uint64(rng.Intn(blocks/4)) * 4
				conflict := false
				for p := start; p < start+4; p++ {
					if inLine[p] {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				// Ensure members are written (device requires readable
				// frames).
				for p := start + 1; p < start+4; p++ {
					if shadow[p] == nil {
						data := pattern(byte(p))
						if err := d.MWS(p, data); err != nil {
							return false
						}
						shadow[p] = data
					}
				}
				if _, err := d.HeatLine(start, 2); err != nil {
					t.Logf("heat [%d,%d): %v", start, start+4, err)
					return false
				}
				for p := start; p < start+4; p++ {
					inLine[p] = true
				}
				lines = append(lines, start)
				heatedCount++
			}
			// Invariant: heated set never shrinks.
			if len(d.HeatedBlocks()) < heatedCount {
				t.Log("heated set shrank")
				return false
			}
		}
		// All heated lines verify clean.
		for _, start := range lines {
			rep, err := d.VerifyLine(start)
			if err != nil || !rep.OK {
				t.Logf("line %d dirty after honest ops: %v", start, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHeatedLineIndexMatchesRegistryScan holds the indexed heated-line
// membership to a naive scan of Lines() over random registries: lines
// of 2–16 blocks heated at random, then rebuilt by Scan, then replaced
// by ReplaceLine at other sizes (which deletes the entries it covers and
// frees blocks of a line it shrinks), then a forged record claiming an
// unaligned line, which Scan recovers. After every stage each block's
// magnetic write check must refuse with ErrHeatedBlock exactly when
// the scan puts it inside a line, and every HeatLine must report
// ErrLineOverlap exactly when the scan finds an overlapping line that
// is not the same line.
func TestHeatedLineIndexMatchesRegistryScan(t *testing.T) {
	const blocks = 128
	inside := func(lines []LineInfo, pba uint64) bool {
		for _, li := range lines {
			if li.Start <= pba && pba < li.End() {
				return true
			}
		}
		return false
	}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		d := testDevice(t, blocks)
		for pba := uint64(0); pba < blocks; pba++ {
			if err := d.MWS(pba, pattern(byte(pba))); err != nil {
				t.Fatal(err)
			}
		}
		check := func(stage string) {
			t.Helper()
			lines := d.Lines()
			for pba := uint64(0); pba < blocks; pba++ {
				err := d.magWriteCheck(pba)
				if want := inside(lines, pba); errors.Is(err, ErrHeatedBlock) != want {
					t.Fatalf("seed %d, %s: block %d write check %v, inside a line %v (lines %v)",
						seed, stage, pba, err, want, lines)
				}
			}
		}
		heat := func(stage string, count int) {
			t.Helper()
			for range count {
				logN := uint8(1 + rng.Intn(4))
				size := uint64(1) << logN
				start := uint64(rng.Intn(blocks>>logN)) << logN
				overlap, same := false, false
				for _, li := range d.Lines() {
					if li.Start < start+size && start < li.End() {
						overlap = true
						same = same || (li.Start == start && li.LogN == logN)
					}
				}
				_, err := d.HeatLine(start, logN)
				if want := overlap && !same; errors.Is(err, ErrLineOverlap) != want {
					t.Fatalf("seed %d, %s: heat [%d,%d): %v, overlapping another line %v",
						seed, stage, start, start+size, err, want)
				}
			}
			check(stage)
		}

		heat("heat", 16)
		if _, _, err := d.Scan(); err != nil {
			t.Fatal(err)
		}
		check("scan")

		// Shrink the largest line to two blocks: its other members
		// leave the registry and take magnetic writes again.
		lines := d.Lines()
		if len(lines) == 0 {
			t.Fatalf("seed %d: no line heated", seed)
		}
		big := lines[0]
		for _, li := range lines {
			if li.LogN > big.LogN {
				big = li
			}
		}
		if _, err := d.ReplaceLine(big.Start, 1, nil); err != nil {
			t.Fatal(err)
		}
		check("shrink")
		if big.LogN > 1 {
			if err := d.MWS(big.End()-1, pattern(1)); err != nil {
				t.Fatalf("seed %d: block %d freed by a repair: %v", seed, big.End()-1, err)
			}
		}
		// Replace random lines with enclosing ones, deleting every
		// entry each covers.
		for range 3 {
			lines := d.Lines()
			li := lines[rng.Intn(len(lines))]
			logN := min(li.LogN+1+uint8(rng.Intn(2)), 5)
			if _, err := d.ReplaceLine(li.Start&^(1<<logN-1), logN, nil); err != nil {
				t.Fatal(err)
			}
			check("grow")
		}
		heat("heat after repair", 8)

		// A record claiming the unaligned line [pba, pba+2), written
		// electrically at a free odd block: Scan registers it.
		lines = d.Lines()
		forged := uint64(0)
		for pba := uint64(1); pba+1 < blocks; pba += 2 {
			if !inside(lines, pba) && !d.IsHeatedCached(pba) {
				forged = pba
				break
			}
		}
		if forged == 0 {
			continue
		}
		rec := HeatRecord{LogN: 1, Start: forged}
		if err := d.EWS(forged, rec.Marshal()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Scan(); err != nil {
			t.Fatal(err)
		}
		if !inside(d.Lines(), forged+1) {
			t.Fatalf("seed %d: forged line at %d not recovered", seed, forged)
		}
		check("forged scan")
		heat("heat after forged scan", 8)
	}
}
