package device

import (
	"fmt"
	"testing"
)

// BenchmarkMRS reads one block per op, the serving tier's hot read
// path: on a sled with the default read noise, and on the quiet one.
// On both, a healthy dot's read cannot be flipped by the noise, so
// every block written since its last change is proven and its frame
// check skipped (skipped/op 1).
func BenchmarkMRS(b *testing.B) {
	const blocks = 64
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"default", DefaultParams(blocks)},
		{"quiet", QuietParams(blocks)},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := New(c.p)
			for pba := uint64(0); pba < blocks; pba++ {
				if err := d.MWS(pba, pattern(byte(pba))); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(DataBytes)
			b.ReportAllocs()
			before := d.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.MRS(uint64(i % blocks)); err != nil {
					b.Fatal(err)
				}
			}
			reportWork(b, d, before)
		})
	}
}

// reportWork reports the host work d's proofs saved per op since
// before: frame checks skipped and moved frames rebound by linearity.
func reportWork(b *testing.B, d *Device, before OpStats) {
	st := d.Stats()
	b.ReportMetric(float64(st.FrameChecksSkipped-before.FrameChecksSkipped)/float64(b.N), "skipped/op")
	b.ReportMetric(float64(st.FramesRebound-before.FramesRebound)/float64(b.N), "rebound/op")
}

// BenchmarkWriteBlocks writes a 16-block run per op and reports the
// cost per block, the log-append write path.
func BenchmarkWriteBlocks(b *testing.B) {
	benchWriteBlocks(b, noisyDevice(b, 64, 1))
}

// BenchmarkWriteBlocksHeatedLines is BenchmarkWriteBlocks with 256
// heated lines of 16, 8, 4 and 2 blocks registered past the written
// blocks: every written block's heated-line check then probes four
// line sizes, and its ns/block should stay close to the line-free
// benchmark's.
func BenchmarkWriteBlocksHeatedLines(b *testing.B) {
	// Each group of four lines (16, 8, 4 and 2 blocks) fills 30 blocks
	// of a 32-block window. The medium is quiet so that no heat fails
	// its read-back; a magnetic write draws no read noise either way.
	const lines, window = 256, 32
	d := quietDevice(b, 64+lines/4*window)
	start := uint64(64)
	for i := range lines {
		logN := uint8(4 - i%4)
		if _, err := d.HeatLine(start, logN); err != nil {
			b.Fatal(err)
		}
		start += 1 << logN
		if i%4 == 3 {
			start += 2
		}
	}
	benchWriteBlocks(b, d)
}

// benchWriteBlocks writes 16-block runs over the first 64 blocks of d.
func benchWriteBlocks(b *testing.B, d *Device) {
	const blocks, run = 64, 16
	bufs := make([][]byte, run)
	for i := range bufs {
		bufs[i] = pattern(byte(i))
	}
	b.SetBytes(run * DataBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteBlocksTraced(nil, uint64(i%(blocks/run)*run), bufs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/block")
}

// BenchmarkMoveGroups relocates 64 blocks per op, the copy phase of a
// one-victim cleaning round: as one 64-move group on one plane, and as
// the four contiguous 16-move shares the lfs cleaner now hands the
// engine, one per plane. Host ns/op and allocations show what the
// fan-out's goroutines and planes cost on the host; virt-ms shows the
// virtual time a share split saves. Every source read is proven and
// every frame rebound by linearity (skipped/op and rebound/op 64).
func BenchmarkMoveGroups(b *testing.B) {
	const moves = 64
	for _, shares := range []int{1, 4} {
		b.Run(fmt.Sprintf("shares=%d", shares), func(b *testing.B) {
			d := quietDevice(b, 4*moves)
			all := make([]BlockMove, moves)
			for i := range all {
				all[i] = BlockMove{Src: uint64(i), Dst: uint64(2*moves + i)}
			}
			groups := make([][]BlockMove, shares)
			per := moves / shares
			for g := range groups {
				groups[g] = all[g*per : (g+1)*per]
			}
			b.ReportAllocs()
			before := d.Stats()
			b.ResetTimer()
			start := d.Clock().Now()
			for i := 0; i < b.N; i++ {
				for _, r := range d.MoveGroups(groups, shares) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(d.Clock().Now()-start)/1e6/float64(b.N), "virt-ms")
			reportWork(b, d, before)
		})
	}
}

// TestFramePathAllocations guards the in-place frame path: a clean
// frame's Marshal allocates only the image it returns and
// UnmarshalFrame nothing, a clean MRS allocates only the payload it
// returns (plus one of slack), and a move group's allocations do not
// grow with its moves.
func TestFramePathAllocations(t *testing.T) {
	f := Frame{PBA: 3, Flags: FlagData}
	copy(f.Data[:], pattern(9))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := UnmarshalFrame(f.Marshal(), 3); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Marshal+UnmarshalFrame of a clean frame: %v allocations, want <= 1", n)
	}

	const blocks = 8
	d := noisyDevice(t, blocks, 1)
	for pba := uint64(0); pba < blocks; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	var pba uint64
	if n := testing.AllocsPerRun(100, func() {
		if _, err := d.MRS(pba % blocks); err != nil {
			t.Fatal(err)
		}
		pba++
	}); n > 2 {
		t.Errorf("MRS of a clean block: %v allocations, want <= 2", n)
	}

	// A move allocates no payload of its own: a 16-move group, one
	// destination run, costs what a 1-move group does.
	moves := func(n int) float64 {
		d := testDevice(t, 64)
		group := make([]BlockMove, n)
		for i := range group {
			if err := d.MWS(uint64(i), pattern(byte(i))); err != nil {
				t.Fatal(err)
			}
			group[i] = BlockMove{Src: uint64(i), Dst: uint64(32 + i)}
		}
		groups := [][]BlockMove{group}
		return testing.AllocsPerRun(50, func() {
			if r := d.MoveGroups(groups, 1); r[0].Err != nil {
				t.Fatal(r[0].Err)
			}
		})
	}
	if one, many := moves(1), moves(16); many > one {
		t.Errorf("MoveGroups: %v allocations for 16 moves, %v for 1; want no more", many, one)
	}
}

// quietDevice returns a device on perfbench's medium: no read noise,
// no residual in-plane signal and no crosstalk flips.
func quietDevice(b *testing.B, blocks int) *Device {
	d := New(QuietParams(blocks))
	for pba := uint64(0); pba < uint64(blocks); pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkVerifyLine verifies one heated 4-block line per op: the
// electrical read of the heat record, the magnetic read of the three
// members (the first a crosstalk neighbour of the record) and the hash.
// The members' reads are proven (skipped/op 3): the first member's row
// took the record's spill once, and its next clean decode re-proved it.
func BenchmarkVerifyLine(b *testing.B) {
	d := quietDevice(b, 8)
	if _, err := d.HeatLine(0, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := d.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.VerifyLine(0)
		if err != nil || !rep.OK {
			b.Fatalf("verify %+v %v", rep, err)
		}
	}
	reportWork(b, d, before)
}

// BenchmarkMRSCrosstalkNeighbour reads the block next to a heated
// record per op: its row carries the partial damage of the record's
// neighbour pulses but no heated or stuck dot.
func BenchmarkMRSCrosstalkNeighbour(b *testing.B) {
	d := quietDevice(b, 8)
	if _, err := d.HeatLine(4, 2); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(DataBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.MRS(3 + uint64(i%2)*2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkERS electrically reads a sealed heat record per op, on the
// quiet medium and on the default (noisy) one: the audit's and the
// heat read-back's erb pass over the record's 1,024 Manchester dots
// with the device's 8 attempts per dot, and its decode. A clean read
// allocates only the decoded payload. On the noisy medium a heated dot
// may now and then pass all its attempts and leave a UU cell, so only
// the quiet read must be clean.
func BenchmarkERS(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Params
	}{
		{"quiet", QuietParams(8)},
		{"default", DefaultParams(8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := New(c.p)
			for pba := uint64(0); pba < 4; pba++ {
				if err := d.MWS(pba, pattern(byte(pba))); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := d.HeatLine(0, 2); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := d.ERS(0, HeatRecordBytes)
				if err != nil || !rep.Clean && c.name == "quiet" {
					b.Fatalf("ERS %+v %v", rep, err)
				}
			}
		})
	}
}

// BenchmarkEWS electrically writes a heat record's 64 bytes per op,
// always into a block no earlier op heated (every block of a 256-block
// quiet sled in turn, then a fresh sled's), so each op pulses its 512
// dots across the threshold.
func BenchmarkEWS(b *testing.B) {
	const blocks = 256
	payload := pattern(7)[:HeatRecordBytes]
	d := New(QuietParams(blocks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%blocks == 0 {
			b.StopTimer()
			d = New(QuietParams(blocks))
			b.StartTimer()
		}
		if err := d.EWS(uint64(i%blocks), payload); err != nil {
			b.Fatal(err)
		}
	}
}
