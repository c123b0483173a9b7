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
	const blocks, run = 64, 16
	d := noisyDevice(b, blocks, 1)
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
