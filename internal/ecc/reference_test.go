package ecc

import (
	"bytes"
	"slices"
	"testing"

	"sero/internal/sim"
)

// The byte-wise reference codec: the systematic encoder that makes one
// Mul per parity byte per data byte, the syndrome-first clean check,
// and the gather-per-lane interleaving. The table-driven encoder and
// the remainder check replaced them; they stay here as the oracle
// FuzzCodecMatchesReference holds the fast paths to. refRemainders,
// the one-byte-per-step table LFSR, is the oracle the eight-byte step
// is held to.

// refGenerator returns g(x) = Π_{i<parity} (x + α^i), highest-degree
// first.
func refGenerator(parity int) []byte {
	gen := []byte{1}
	for i := 0; i < parity; i++ {
		gen = polyMul(gen, []byte{1, Exp(i)})
	}
	return gen
}

// refEncode returns data‖parity computed one Mul at a time.
func refEncode(gen []byte, data []byte) []byte {
	parity := len(gen) - 1
	rem := make([]byte, parity)
	for _, d := range data {
		factor := d ^ rem[0]
		copy(rem, rem[1:])
		rem[parity-1] = 0
		if factor != 0 {
			for i := 0; i < parity; i++ {
				rem[i] ^= Mul(gen[i+1], factor)
			}
		}
	}
	return append(append([]byte(nil), data...), rem...)
}

// refClean reports whether every syndrome of cw is zero.
func refClean(parity int, cw []byte) bool {
	for i := 0; i < parity; i++ {
		if polyEval(cw, Exp(i)) != 0 {
			return false
		}
	}
	return true
}

// refLane gathers lane w of data, padding an empty lane with one zero
// byte as Interleaved does.
func refLane(data []byte, w, ways int) (lane []byte, idx []int) {
	for i := w; i < len(data); i += ways {
		lane = append(lane, data[i])
		idx = append(idx, i)
	}
	if len(lane) == 0 {
		lane = []byte{0}
	}
	return lane, idx
}

// refInterleavedEncode gathers each lane, encodes it and appends the
// lanes' parity in lane order.
func refInterleavedEncode(gen []byte, ways int, data []byte) []byte {
	out := append([]byte(nil), data...)
	for w := 0; w < ways; w++ {
		lane, _ := refLane(data, w, ways)
		out = append(out, refEncode(gen, lane)[len(lane):]...)
	}
	return out
}

// refInterleavedDecode gathers every lane, clean or not, decodes it
// with c and scatters the data back into a copy.
func refInterleavedDecode(c *Codec, ways int, buf []byte, dataLen int) ([]byte, int, error) {
	data := append([]byte(nil), buf[:dataLen]...)
	corrected := 0
	for w := 0; w < ways; w++ {
		lane, idx := refLane(data, w, ways)
		off := dataLen + w*c.parity
		cw := append(lane, buf[off:off+c.parity]...)
		fixed, n, err := c.Decode(cw)
		if err != nil {
			return nil, corrected, err
		}
		corrected += n
		for j, i := range idx {
			data[i] = fixed[j]
		}
	}
	return data, corrected, nil
}

// refRemainders is remainders one byte per step, through table 0 only:
// the strided word-wide LFSR the eight-byte step replaced.
func refRemainders(c *Codec, st []uint64, data []byte, ways int) {
	w := c.words
	clear(st)
	for i, d := range data {
		r := st[i%ways*w:][:w]
		f := int(d^byte(r[0]>>56)) * w
		for k := range w {
			v := r[k] << 8
			if k+1 < w {
				v |= r[k+1] >> 56
			}
			r[k] = v ^ c.tab[f+k]
		}
	}
}

// TestRemaindersMatchByteStep holds remainders to the one-byte step
// for every parity 1–40 (one to five words, pad bytes included; only
// the two-word parities 9–16 take the eight-byte step), every
// interleave 1–5 and every data length up to three whole 8·ways blocks
// plus a 9-byte tail.
func TestRemaindersMatchByteStep(t *testing.T) {
	rng := sim.NewRNG(8)
	for parity := 1; parity <= 40; parity++ {
		c := NewCodec(parity)
		for ways := 1; ways <= 5; ways++ {
			data := make([]byte, 3*sliceBytes*ways+9)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			got := make([]uint64, ways*c.words)
			want := make([]uint64, ways*c.words)
			for n := 0; n <= len(data); n++ {
				c.remainders(got, data[:n], ways)
				refRemainders(c, want, data[:n], ways)
				if !slices.Equal(got, want) {
					t.Fatalf("parity %d ways %d length %d: remainders %x, byte step %x",
						parity, ways, n, got, want)
				}
			}
		}
	}
}

// refCorrupt XORs errs, read as (position, value) pairs, into a copy of
// cw and returns it with the positions it changed, in first-hit order.
func refCorrupt(cw, errs []byte) ([]byte, []int) {
	bad := append([]byte(nil), cw...)
	for i := 0; i+1 < len(errs); i += 2 {
		bad[int(errs[i])%len(bad)] ^= errs[i+1]
	}
	var changed []int
	seen := make(map[int]bool)
	for i := 0; i+1 < len(errs); i += 2 {
		pos := int(errs[i]) % len(bad)
		if !seen[pos] && bad[pos] != cw[pos] {
			changed = append(changed, pos)
		}
		seen[pos] = true
	}
	return bad, changed
}

// FuzzCodecMatchesReference holds the table-driven encoder, the remainder
// clean check and the one-pass interleaved codec to the byte-wise
// reference: encoded bytes must match exactly for every parity (1–64)
// and interleave (1–5), the remainder check must agree with the
// syndromes on every corrupted word, decodes within capacity must
// restore the data with the exact corrected count, and an interleaved
// decode must return exactly what gathering and decoding every lane
// returns, and a parity patched for a changed head (HeadDelta) must be
// the changed message's encoding.
func FuzzCodecMatchesReference(f *testing.F) {
	f.Add([]byte("hello, reed-solomon"), uint8(15), uint8(3), []byte{3, 0x5a, 40, 0xff})
	f.Add([]byte{0}, uint8(0), uint8(0), []byte{})
	f.Add(bytes.Repeat([]byte{0xa5}, 200), uint8(8), uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(make([]byte, 528), uint8(15), uint8(3), []byte{100, 1, 101, 2, 102, 3, 103, 4, 104, 5})
	f.Add([]byte{1, 2, 3}, uint8(63), uint8(4), []byte{0, 9, 70, 1})
	f.Add([]byte("pad bytes"), uint8(12), uint8(1), []byte{8, 0x80, 9, 1, 10, 2})
	f.Fuzz(func(t *testing.T, data []byte, parityIn, waysIn uint8, errs []byte) {
		parity := 1 + int(parityIn)%64
		ways := 1 + int(waysIn)%5
		c := NewCodec(parity)
		gen := refGenerator(parity)

		msg := data
		if len(msg) == 0 {
			msg = []byte{0}
		}
		if len(msg) > c.MaxData() {
			msg = msg[:c.MaxData()]
		}
		cw := c.Encode(msg)
		if want := refEncode(gen, msg); !bytes.Equal(cw, want) {
			t.Fatalf("parity %d: Encode %x, reference %x", parity, cw, want)
		}

		bad, changed := refCorrupt(cw, errs)
		if got, want := c.clean(bad), refClean(parity, bad); got != want {
			t.Fatalf("parity %d: remainder check %v, syndromes zero %v", parity, got, want)
		}
		fixed := append([]byte(nil), bad...)
		got, n, err := c.Decode(fixed)
		if err == nil && !refClean(parity, fixed) {
			t.Fatalf("parity %d: Decode accepted a word with nonzero syndromes", parity)
		}
		if 2*len(changed) <= parity && (err != nil || n != len(changed) || !bytes.Equal(got, msg)) {
			t.Fatalf("parity %d, %d errors: Decode corrected %d, err %v", parity, len(changed), n, err)
		}

		if len(changed) <= parity {
			got, err := c.DecodeErasures(append([]byte(nil), bad...), changed)
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("parity %d, %d erasures: %v", parity, len(changed), err)
			}
		}
		if k := len(changed) - 1; k >= 0 && k < parity {
			// The last changed byte is a hidden error outside the
			// declared erasures; with fewer erasures than parity no other
			// codeword lies that close, so the decode must fail.
			if _, err := c.DecodeErasures(append([]byte(nil), bad...), changed[:k]); err == nil {
				t.Fatalf("parity %d: hidden error beside %d erasures accepted", parity, k)
			}
		}

		il := &Interleaved{codec: c, ways: ways}
		imsg := data
		if len(imsg) == 0 {
			imsg = []byte{0}
		}
		if len(imsg) > il.MaxData() {
			imsg = imsg[:il.MaxData()]
		}
		frame := il.Encode(imsg)
		if want := refInterleavedEncode(gen, ways, imsg); !bytes.Equal(frame, want) {
			t.Fatalf("parity %d ways %d: Encode %x, reference %x", parity, ways, frame, want)
		}
		// The head patch: the first n message bytes take errs' values,
		// and patching the parity by linearity must give the reference
		// encoding of the changed message.
		if n := min(len(imsg), len(errs), 2*ways+1); n > 0 {
			patched := append([]byte(nil), frame...)
			delta := make([]byte, n)
			for i := range delta {
				delta[i] = patched[i] ^ errs[i]
				patched[i] = errs[i]
			}
			il.HeadDelta(len(imsg), n).Patch(patched, delta)
			if want := refInterleavedEncode(gen, ways, patched[:len(imsg)]); !bytes.Equal(patched, want) {
				t.Fatalf("parity %d ways %d: head patch %x, reference %x", parity, ways, patched, want)
			}
		}
		badFrame, _ := refCorrupt(frame, errs)
		g1, n1, e1 := il.Decode(append([]byte(nil), badFrame...), len(imsg))
		g2, n2, e2 := refInterleavedDecode(c, ways, append([]byte(nil), badFrame...), len(imsg))
		if !bytes.Equal(g1, g2) || n1 != n2 || e1 != e2 {
			t.Fatalf("parity %d ways %d: Decode (%x, %d, %v), reference (%x, %d, %v)",
				parity, ways, g1, n1, e1, g2, n2, e2)
		}
	})
}
