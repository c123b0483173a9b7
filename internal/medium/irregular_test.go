package medium

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"sero/internal/physics"
	"sero/internal/sim"
)

// checkIrregular fails t unless every row's irregular and cool stuck
// counts and its heated bitset equal a scan of its overlay, no overlay
// is longer than its row and a row with a heated dot has a whole-row
// bitset.
func checkIrregular(t *testing.T, m *Medium, step string) {
	t.Helper()
	for row, ov := range m.overlay {
		if ov == nil {
			continue
		}
		if len(ov.dots) > m.p.Cols {
			t.Fatalf("after %s: row %d overlay holds %d records for %d dots", step, row, len(ov.dots), m.p.Cols)
		}
		var irregular, cool uint32
		heated := make([]uint64, m.wordsPerRow)
		for i := range ov.dots {
			e := &ov.dots[i]
			if !e.fullAmplitude() {
				irregular++
			}
			if e.heated() {
				heated[i>>6] |= 1 << (63 - i&63)
			} else if e.stuck != StuckNone {
				cool++
			}
		}
		if ov.irregular != irregular || ov.coolStuck != cool {
			t.Fatalf("after %s: row %d counts %d irregular and %d cool stuck dots, its overlay holds %d and %d",
				step, row, ov.irregular, ov.coolStuck, irregular, cool)
		}
		got := ov.heated
		if got == nil {
			got = make([]uint64, m.wordsPerRow)
		}
		if !slices.Equal(got, heated) {
			t.Fatalf("after %s: row %d heated bitset %x, its overlay's heated dots %x", step, row, got, heated)
		}
	}
}

// snapPulseTempOffset is where a snapshot stores PulseTempC: after the
// magic, the version, the geometry and five float64 parameters.
const snapPulseTempOffset = 4 + 1 + 4 + 4 + 5*8

// restoreWithPulse round-trips m through a snapshot whose pulse
// temperature is replaced by tempC.
func restoreWithPulse(t *testing.T, m *Medium, tempC float64) *Medium {
	t.Helper()
	snap := m.Snapshot()
	binary.BigEndian.PutUint64(snap[snapPulseTempOffset:], math.Float64bits(tempC))
	got, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params().PulseTempC != tempC {
		t.Fatalf("restored pulse %g °C, patched %g", got.Params().PulseTempC, tempC)
	}
	return got
}

// TestIrregularCountProperty runs random histories of every operation
// that changes a dot's overlay record — bursts of full (900 °C) and
// weak (700 °C, several pulses to destroy) electrical writes, all four SetStuck kinds
// including StuckNone, magnetic corruption, partial-row and whole-row
// replacement, snapshot round trips (which switch between the two
// pulse temperatures) and a bulk erase — and checks after every step
// that each row's counts of heated or stuck dots and of stuck dots
// that are not heated, and its heated bitset, equal a scan of its
// overlay. The rows are 102 dots, not a whole number of words or of
// quarter-row overlay steps (26 dots), so overlay growth stops short
// at the row's end and replacement pieces straddle words.
func TestIrregularCountProperty(t *testing.T) {
	const rows, cols, steps = 4, 102, 400
	temps := [2]float64{900, 700}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			p := DefaultParams(rows, cols)
			p.Seed = seed
			if seed%2 == 0 {
				p = p.Quiet()
			}
			m := New(p)
			rng := sim.NewRNG(seed)
			weak := 0
			for s := 0; s < steps; s++ {
				i := rng.Intn(m.Dots())
				var step string
				switch op := rng.Intn(8); op {
				case 0, 1:
					n := 1 + rng.Intn(8)
					for range n {
						m.EWB(i)
					}
					step = fmt.Sprintf("%d × EWB(%d) at %g °C", n, i, temps[weak])
				case 2:
					k := StuckKind(rng.Intn(4))
					m.SetStuck(i, k)
					step = fmt.Sprintf("SetStuck(%d, %d)", i, k)
				case 3:
					m.CorruptMagnetic(i)
					step = fmt.Sprintf("CorruptMagnetic(%d)", i)
				case 4:
					hi := min(m.Dots(), i+1+rng.Intn(cols/2))
					m.ReplaceRegion(i, hi)
					step = fmt.Sprintf("ReplaceRegion(%d, %d)", i, hi)
				case 5:
					row := i / cols
					m.ReplaceRegion(row*cols, (row+1)*cols)
					step = fmt.Sprintf("ReplaceRegion of row %d", row)
				case 6:
					weak = 1 - weak
					m = restoreWithPulse(t, m, temps[weak])
					step = fmt.Sprintf("snapshot round trip to %g °C", temps[weak])
				case 7:
					m.BulkErase()
					step = "BulkErase"
				}
				checkIrregular(t, m, fmt.Sprintf("step %d, %s", s, step))
			}
		})
	}
}

// TestPulsesMatchPulseDamage pins the pulses New builds to
// physics.PulseDamage bit for bit: the target's pulse and the
// neighbours' attenuated one, at the default 900 °C and at a 595 °C
// pulse train, with zero and default dwell, from pristine, partial,
// just-below-threshold and full damage; and an EWB stores exactly the
// float32 of that damage.
func TestPulsesMatchPulseDamage(t *testing.T) {
	below := math.Nextafter(physics.HeatedDamageThreshold, 0)
	for _, temp := range []float64{900, 595} {
		for _, secs := range []float64{50e-6, 0} {
			p := DefaultParams(1, 4).Quiet()
			p.PulseTempC, p.PulseSeconds = temp, secs
			m := New(p)
			for _, c := range []struct {
				name  string
				pulse physics.Pulse
				tempC float64
			}{
				{"heat", m.heat, p.PulseTempC},
				{"spill", m.spill, p.PulseTempC * p.NeighborTempFactor},
			} {
				for _, cur := range []float64{0, 0.3, below, 1} {
					got := c.pulse.Damage(cur)
					want := physics.PulseDamage(c.tempC, secs, cur)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%g °C, %g s, %s pulse from %g: %v, PulseDamage %v",
							temp, secs, c.name, cur, got, want)
					}
				}
			}
			m.EWB(1)
			for dot, tempC := range map[int]float64{1: p.PulseTempC, 0: p.PulseTempC * p.NeighborTempFactor} {
				want := float64(float32(physics.PulseDamage(tempC, secs, 0)))
				if got := m.Damage(dot); got != want {
					t.Fatalf("%g °C, %g s: dot %d damage %v after one EWB, want %v", temp, secs, dot, got, want)
				}
			}
		}
	}
}
