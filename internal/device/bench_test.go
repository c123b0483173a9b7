package device

import "testing"

// BenchmarkMRS reads one block per op from a sled with the default
// read noise, the serving tier's hot read path.
func BenchmarkMRS(b *testing.B) {
	const blocks = 64
	d := noisyDevice(b, blocks, 1)
	for pba := uint64(0); pba < blocks; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(DataBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.MRS(uint64(i % blocks)); err != nil {
			b.Fatal(err)
		}
	}
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
		if err := d.WriteBlocks(uint64(i%(blocks/run)*run), bufs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/block")
}

// TestFramePathAllocations guards the in-place frame path: a clean
// frame's Marshal allocates only the image it returns and
// UnmarshalFrame nothing, and a clean MRS allocates only the payload
// it returns (plus one of slack).
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
func BenchmarkVerifyLine(b *testing.B) {
	d := quietDevice(b, 8)
	if _, err := d.HeatLine(0, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.VerifyLine(0)
		if err != nil || !rep.OK {
			b.Fatalf("verify %+v %v", rep, err)
		}
	}
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
