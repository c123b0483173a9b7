package ecc

import (
	"bytes"
	"testing"
	"testing/quick"

	"sero/internal/sim"
)

func TestEncodeDecodeClean(t *testing.T) {
	c := NewCodec(16)
	data := []byte("hello, reed-solomon world")
	cw := c.Encode(data)
	got, n, err := c.Decode(append([]byte(nil), cw...))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("corrected %d on a clean codeword", n)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestCorrectSingleError(t *testing.T) {
	c := NewCodec(16)
	data := []byte("single error correction test")
	for pos := 0; pos < len(data)+16; pos++ {
		cw := c.Encode(data)
		cw[pos] ^= 0x5A
		got, n, err := c.Decode(cw)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if n != 1 {
			t.Fatalf("pos %d: corrected %d, want 1", pos, n)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pos %d: wrong data", pos)
		}
	}
}

func TestCorrectUpToCapacity(t *testing.T) {
	const parity = 16
	c := NewCodec(parity)
	rng := sim.NewRNG(42)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	for errs := 1; errs <= parity/2; errs++ {
		cw := c.Encode(data)
		perm := rng.Perm(len(cw))
		for i := 0; i < errs; i++ {
			cw[perm[i]] ^= byte(1 + rng.Intn(255))
		}
		got, n, err := c.Decode(cw)
		if err != nil {
			t.Fatalf("%d errors: %v", errs, err)
		}
		if n != errs {
			t.Fatalf("%d errors: corrected %d", errs, n)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d errors: wrong data", errs)
		}
	}
}

func TestBeyondCapacityFails(t *testing.T) {
	const parity = 8
	c := NewCodec(parity)
	rng := sim.NewRNG(7)
	data := make([]byte, 60)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	// With parity/2+2 errors the decoder must not return success with
	// wrong data silently; it should error (detection beyond t errors
	// is probabilistic for RS, but with this margin failure to correct
	// is certain; mis-decode to a *different valid* codeword would
	// require parity+1 errors).
	fails := 0
	for trial := 0; trial < 50; trial++ {
		cw := c.Encode(data)
		perm := rng.Perm(len(cw))
		for i := 0; i < parity/2+2; i++ {
			cw[perm[i]] ^= byte(1 + rng.Intn(255))
		}
		got, _, err := c.Decode(cw)
		if err != nil {
			fails++
			continue
		}
		if bytes.Equal(got, data) {
			t.Fatal("decoder claims success with correct data beyond capacity")
		}
	}
	if fails == 0 {
		t.Fatal("decoder never reported failure beyond capacity")
	}
}

func TestDecodePropertyRoundTrip(t *testing.T) {
	c := NewCodec(12)
	rng := sim.NewRNG(99)
	f := func(raw []byte, errCount uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > c.MaxData() {
			raw = raw[:c.MaxData()]
		}
		errs := int(errCount) % (12/2 + 1)
		cw := c.Encode(raw)
		perm := rng.Perm(len(cw))
		for i := 0; i < errs; i++ {
			cw[perm[i]] ^= byte(1 + rng.Intn(255))
		}
		got, n, err := c.Decode(cw)
		return err == nil && n == errs && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecPanicsOnBadParity(t *testing.T) {
	for _, parity := range []int{0, -1, 255, 400} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCodec(%d) did not panic", parity)
				}
			}()
			NewCodec(parity)
		}()
	}
}

func TestEncodePanicsOnOversizeData(t *testing.T) {
	c := NewCodec(16)
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of oversize data did not panic")
		}
	}()
	c.Encode(make([]byte, c.MaxData()+1))
}

func TestDecodeRejectsBadLengths(t *testing.T) {
	c := NewCodec(16)
	if _, _, err := c.Decode(make([]byte, 10)); err == nil {
		t.Fatal("short codeword accepted")
	}
	if _, _, err := c.Decode(make([]byte, 300)); err == nil {
		t.Fatal("long codeword accepted")
	}
}

func TestInterleavedRoundTrip(t *testing.T) {
	il := NewInterleaved(16, 4)
	rng := sim.NewRNG(5)
	data := make([]byte, 592-64)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	buf := il.Encode(data)
	if len(buf) != len(data)+il.ParityBytes() {
		t.Fatalf("encoded length %d", len(buf))
	}
	got, n, err := il.Decode(append([]byte(nil), buf...), len(data))
	if err != nil || n != 0 {
		t.Fatalf("clean decode: %v, n=%d", err, n)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("clean round-trip mismatch")
	}
}

// TestHeadDeltaMatchesEncode changes the head of random messages and
// patches the parity by linearity: the result must be the changed
// message's encoding, for the device's sector geometry (528 data bytes,
// four lanes, a 12-byte head in three tables, and its 8-byte address
// in two) and for lanes of unequal length.
func TestHeadDeltaMatchesEncode(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, g := range []struct{ parity, ways, dataLen, n, tables int }{
		{16, 4, 528, 12, 3},
		{16, 4, 528, 8, 2},
		{16, 4, 527, 8, 3},
		{7, 3, 100, 5, 3},
		{16, 1, 40, 3, 3},
	} {
		il := NewInterleaved(g.parity, g.ways)
		h := il.HeadDelta(g.dataLen, g.n)
		if len(h.tabs) != g.tables {
			t.Errorf("%+v: %d tables, want %d", g, len(h.tabs), g.tables)
		}
		for range 50 {
			data := make([]byte, g.dataLen)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			buf := il.Encode(data)
			delta := make([]byte, g.n)
			for i := range delta {
				delta[i] = byte(rng.Uint64())
				data[i] ^= delta[i]
				buf[i] ^= delta[i]
			}
			h.Patch(buf, delta)
			if want := il.Encode(data); !bytes.Equal(buf, want) {
				t.Fatalf("%+v: patched %x, encode %x", g, buf[g.dataLen:], want[g.dataLen:])
			}
		}
	}
}

func TestInterleavedCorrectsBurst(t *testing.T) {
	il := NewInterleaved(16, 4)
	rng := sim.NewRNG(6)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	buf := il.Encode(data)
	// A 32-byte burst spreads 8 errors into each of the 4 lanes —
	// exactly at capacity.
	for i := 100; i < 132; i++ {
		buf[i] ^= 0xFF
	}
	got, n, err := il.Decode(buf, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if n != 32 {
		t.Fatalf("corrected %d, want 32", n)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("burst round-trip mismatch")
	}
}

func TestInterleavedTooLongBurstFails(t *testing.T) {
	il := NewInterleaved(16, 4)
	data := make([]byte, 512)
	buf := il.Encode(data)
	for i := 100; i < 160; i++ { // 60-byte burst: 15 per lane > 8
		buf[i] ^= 0xA5
	}
	if _, _, err := il.Decode(buf, len(data)); err == nil {
		t.Fatal("oversized burst decoded without error")
	}
}

func TestInterleavedRejectsSizeMismatch(t *testing.T) {
	il := NewInterleaved(16, 4)
	if _, _, err := il.Decode(make([]byte, 100), 50); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func BenchmarkRSEncode512(b *testing.B) {
	il := NewInterleaved(16, 4)
	data := benchData(512)
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		il.Encode(data)
	}
}

// benchData returns n pseudo-random bytes, so encodes and decodes see
// the nonzero feedback bytes real sectors carry.
func benchData(n int) []byte {
	rng := sim.NewRNG(512)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

// BenchmarkRSDecodeClean512 decodes an uncorrupted frame: the
// remainder check alone.
func BenchmarkRSDecodeClean512(b *testing.B) {
	il := NewInterleaved(16, 4)
	buf := il.Encode(benchData(512))
	work := make([]byte, len(buf))
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, buf)
		if _, _, err := il.Decode(work, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeCorrect512 decodes a frame carrying a 32-byte burst
// — 8 errors in every lane, the code's full capacity — so every lane
// takes the correcting path.
func BenchmarkRSDecodeCorrect512(b *testing.B) {
	il := NewInterleaved(16, 4)
	buf := il.Encode(benchData(512))
	for i := 200; i < 232; i++ {
		buf[i] ^= byte(i)
	}
	work := make([]byte, len(buf))
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, buf)
		if _, n, err := il.Decode(work, 512); err != nil || n != 32 {
			b.Fatalf("corrected %d, err %v", n, err)
		}
	}
}

func TestDecodeErasuresFullCapacity(t *testing.T) {
	// Known-position losses correct up to parity symbols — double the
	// parity/2 unknown-position budget.
	for _, parity := range []int{1, 2, 3, 4, 8} {
		c := NewCodec(parity)
		rng := sim.NewRNG(uint64(1000 + parity))
		data := make([]byte, 20)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		cw := c.Encode(data)
		perm := rng.Perm(len(cw))
		positions := perm[:parity]
		corrupt := append([]byte(nil), cw...)
		for _, pos := range positions {
			corrupt[pos] = byte(rng.Uint64()) // garbage, not just zero
		}
		got, err := c.DecodeErasures(corrupt, positions)
		if err != nil {
			t.Fatalf("parity %d: %v", parity, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("parity %d: data mismatch", parity)
		}
		if !bytes.Equal(corrupt, cw) {
			t.Fatalf("parity %d: parity bytes not reconstructed", parity)
		}
	}
}

func TestDecodeErasuresProperty(t *testing.T) {
	c := NewCodec(6)
	rng := sim.NewRNG(7)
	f := func(raw []byte, count uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > c.MaxData() {
			raw = raw[:c.MaxData()]
		}
		e := int(count) % (c.Parity() + 1)
		cw := c.Encode(raw)
		perm := rng.Perm(len(cw))
		positions := perm[:e]
		corrupt := append([]byte(nil), cw...)
		for _, pos := range positions {
			corrupt[pos] = byte(rng.Uint64())
		}
		got, err := c.DecodeErasures(corrupt, positions)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErasuresBeyondCapacity(t *testing.T) {
	c := NewCodec(4)
	data := []byte("erasures beyond parity must fail")
	cw := c.Encode(data)
	positions := []int{0, 5, 9, 13, 17}
	if _, err := c.DecodeErasures(cw, positions); err == nil {
		t.Fatal("decoded 5 erasures with 4 parity bytes")
	}
}

func TestDecodeErasuresRejectsHiddenError(t *testing.T) {
	// A byte corrupted OUTSIDE the declared erasures must not produce
	// a silently wrong decode.
	c := NewCodec(3)
	data := []byte("hidden error detection")
	cw := c.Encode(data)
	cw[2] = 0 // declared erasure
	cw[7] ^= 0xA5
	if _, err := c.DecodeErasures(cw, []int{2}); err == nil {
		t.Fatal("accepted a codeword corrupted outside the erasures")
	}
}

func TestDecodeErasuresRejectsBadPositions(t *testing.T) {
	c := NewCodec(2)
	cw := c.Encode([]byte("positions"))
	if _, err := c.DecodeErasures(append([]byte(nil), cw...), []int{-1}); err == nil {
		t.Fatal("accepted negative position")
	}
	if _, err := c.DecodeErasures(append([]byte(nil), cw...), []int{len(cw)}); err == nil {
		t.Fatal("accepted out-of-range position")
	}
	if _, err := c.DecodeErasures(append([]byte(nil), cw...), []int{1, 1}); err == nil {
		t.Fatal("accepted duplicate positions")
	}
}
