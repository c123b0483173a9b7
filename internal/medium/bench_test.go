package medium

import (
	"testing"

	"sero/internal/sim"
)

func BenchmarkMRB(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	for i := 0; i < 1024; i++ {
		m.MWB(i, i%2 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MRB(i % 1024)
	}
}

func BenchmarkMWB(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MWB(i%1024, i%2 == 0)
	}
}

func BenchmarkERBHealthy(b *testing.B) {
	m := New(DefaultParams(1, 1024))
	for i := 0; i < 1024; i++ {
		m.MWB(i, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.ERB(i % 1024) {
			b.Fatal("false positive")
		}
	}
}

// BenchmarkEWB heats one dot per op, always a dot no earlier op heated:
// the dots of a 64×4,096 medium in index order, then those of a fresh
// one. Each op therefore pulses its dot across the threshold and draws
// its in-plane orientation.
func BenchmarkEWB(b *testing.B) {
	m := New(DefaultParams(64, 4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%m.Dots() == 0 {
			b.StopTimer()
			m = New(DefaultParams(64, 4096))
			b.StartTimer()
		}
		m.EWB(i % m.Dots())
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	m := New(DefaultParams(64, 1024))
	for i := 0; i < 4096; i++ {
		m.MWB(i, i%3 == 0)
	}
	snap := m.Snapshot()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// sealedRows returns a three-row medium of standard 4,736-dot rows
// holding random bits, with row 1 sealed as a heat record is: one dot
// of each of the 1,024 Manchester cells after the 128-dot frame header
// heated, its heat spilling into rows 0 and 2.
func sealedRows(p Params) *Medium {
	const cols = 4736
	p.Rows, p.Cols = 3, cols
	m := New(p)
	rng := sim.NewRNG(1)
	img := make([]byte, cols/8)
	for row := 0; row < 3; row++ {
		for i := range img {
			img[i] = byte(rng.Uint64())
		}
		m.MWBImage(m.Index(row, 0), img)
	}
	for cell := 0; cell < 1024; cell++ {
		m.EWB(m.Index(1, 128+2*cell+cell%2))
	}
	return m
}

// sealedParams are the media the sealed-row benchmarks run on: the
// quiet one the simulator's tests and benchmarks use and the default,
// noisy one.
var sealedParams = []struct {
	name string
	p    Params
}{
	{"quiet", DefaultParams(0, 0).Quiet()},
	{"default", DefaultParams(0, 0)},
}

// BenchmarkMRBImageSealedNeighbour reads the whole row next to a sealed
// record, which carries the record's sub-threshold heat spill: the
// audit's and the serving path's read of a sealed line's neighbour
// block.
func BenchmarkMRBImageSealedNeighbour(b *testing.B) {
	for _, c := range sealedParams {
		b.Run(c.name, func(b *testing.B) {
			m := sealedRows(c.p)
			img := make([]byte, m.p.Cols/8)
			b.SetBytes(int64(len(img)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MRBImage(m.Index(0, 0), img)
			}
		})
	}
}

// BenchmarkERBRangeSealedRecord electrically reads a sealed record's
// 2,048 Manchester dots with the device's 8 erb attempts per dot: the
// audit's check of a heated line.
func BenchmarkERBRangeSealedRecord(b *testing.B) {
	for _, c := range sealedParams {
		b.Run(c.name, func(b *testing.B) {
			m := sealedRows(c.p)
			var verdicts [2048 / 64]uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ERBRange(m.Index(1, 128), 2048, 8, verdicts[:])
			}
		})
	}
}

// BenchmarkEWBSealRecord seals a heat record onto three fresh standard
// rows per op (sealedRows' 1,024 heats on the quiet medium), so B/op
// shows the overlay rows a seal allocates for its row and the two rows
// its heat spills into.
func BenchmarkEWBSealRecord(b *testing.B) {
	p := DefaultParams(0, 0).Quiet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealedRows(p)
	}
}
