package manchester

import (
	"errors"
	"fmt"
)

// Rivest–Shamir write-once-memory code: 2 bits can be written twice
// into 3 write-once cells (here: dots, where "writing" a dot means
// heating it, a one-way 0→1 transition). The paper cites WOM-style
// codes [33] as the "more efficient coding technique" for small line
// sizes (§8): Manchester stores 1 bit in 2 dots forever, while the
// WOM code stores 2 bits in 3 dots and even allows one rewrite —
// 0.75 dots/bit/write versus Manchester's 2.
//
// First-generation codewords (at most one dot heated):
//
//	00→000  01→100  10→010  11→001
//
// Second-generation codewords (complement pattern, two or three dots):
//
//	00→111  01→011  10→101  11→110
//
// A reader distinguishes generations by weight; a writer moves from the
// first to the second generation only by heating dots, never clearing.
type womTable struct {
	gen1 [4][3]bool
	gen2 [4][3]bool
}

var wom = womTable{
	gen1: [4][3]bool{
		{false, false, false}, // 00
		{true, false, false},  // 01
		{false, true, false},  // 10
		{false, false, true},  // 11
	},
	gen2: [4][3]bool{
		{true, true, true},  // 00
		{false, true, true}, // 01
		{true, false, true}, // 10
		{true, true, false}, // 11
	},
}

// WOM errors.
var (
	// ErrWOMExhausted reports a write that the current cell state can
	// no longer reach (both generations used, or an unreachable
	// pattern requested).
	ErrWOMExhausted = errors.New("manchester: WOM cell exhausted")
	// ErrWOMInvalid reports a dot pattern that is no valid WOM
	// codeword (evidence of tampering, the WOM analogue of HH).
	ErrWOMInvalid = errors.New("manchester: invalid WOM codeword")
)

// WOMCell is a triple of write-once dots storing 2 logical bits,
// rewritable once.
type WOMCell struct {
	dots [3]bool
}

// Dots returns the current heat pattern.
func (c *WOMCell) Dots() [3]bool { return c.dots }

// SetDots overwrites the raw pattern; used when loading cell state from
// a medium. Arbitrary patterns are representable so that tampering can
// be detected on Read.
func (c *WOMCell) SetDots(d [3]bool) { c.dots = d }

// generation classifies the current pattern: 0 = unwritten/gen-1,
// 1 = gen-2, -1 = invalid.
func (c *WOMCell) generation() (gen int, value byte, ok bool) {
	for v := 0; v < 4; v++ {
		if c.dots == wom.gen1[v] {
			return 0, byte(v), true
		}
		if c.dots == wom.gen2[v] {
			return 1, byte(v), true
		}
	}
	return -1, 0, false
}

// Read decodes the 2-bit value. ErrWOMInvalid signals tampering.
func (c *WOMCell) Read() (byte, error) {
	_, v, ok := c.generation()
	if !ok {
		return 0, ErrWOMInvalid
	}
	return v, nil
}

// Write stores value (0..3), heating dots as needed. The first write
// uses generation-1 codewords; a second write moves to generation 2.
// Writes that would require clearing a dot return ErrWOMExhausted.
func (c *WOMCell) Write(value byte) error {
	if value > 3 {
		panic(fmt.Sprintf("manchester: WOM value %d out of range", value))
	}
	gen, cur, ok := c.generation()
	if !ok {
		return ErrWOMInvalid
	}
	// Fresh cell (000 decodes as gen-1 value 00).
	if gen == 0 && c.dots == wom.gen1[0] {
		c.dots = wom.gen1[value]
		return nil
	}
	if gen == 0 {
		if cur == value {
			return nil // already stores it; no dots to heat
		}
		target := wom.gen2[value]
		if !reachable(c.dots, target) {
			return ErrWOMExhausted
		}
		c.dots = target
		return nil
	}
	// Generation 2: only the identical value is still "writable".
	if cur == value {
		return nil
	}
	return ErrWOMExhausted
}

// reachable reports whether target can be reached from cur using only
// 0→1 (heat) transitions.
func reachable(cur, target [3]bool) bool {
	for i := range cur {
		if cur[i] && !target[i] {
			return false
		}
	}
	return true
}

// DotsPerBit reports the storage efficiency of the codings: Manchester
// uses 2 dots per bit per single write; the WOM code uses 1.5 dots per
// bit and supports two writes, i.e. 0.75 dots per bit-write.
func DotsPerBit(useWOM bool) float64 {
	if useWOM {
		return 1.5
	}
	return 2
}

// WOMEncodedDots returns the dots needed to WOM-encode n bytes
// (4 cells of 3 dots per byte).
func WOMEncodedDots(n int) int { return n * 12 }

// womCodes maps a byte to the 12 packed flags WOMEncode writes for it:
// four first-generation cells, MSB-first.
var womCodes = func() (t [256]uint16) {
	for b := range t {
		for p := 0; p < 4; p++ {
			cw := wom.gen1[b>>(6-2*p)&3]
			t[b] = t[b]<<3 | uint16(packDots(cw))
		}
	}
	return t
}()

// womValues maps a cell's packed 3-dot pattern (first dot in bit 2) to
// the 2-bit value it reads as, or -1 for a pattern that is no codeword.
var womValues = func() (t [8]int8) {
	for p := range t {
		c := WOMCell{dots: [3]bool{p&4 != 0, p&2 != 0, p&1 != 0}}
		if v, err := c.Read(); err != nil {
			t[p] = -1
		} else {
			t[p] = int8(v)
		}
	}
	return t
}()

// packDots packs a cell's dots with the first in bit 2.
func packDots(d [3]bool) int {
	p := 0
	for _, h := range d {
		p <<= 1
		if h {
			p |= 1
		}
	}
	return p
}

// WOMEncode appends the packed heat flags of data to dst using
// first-generation Rivest-Shamir codewords and returns the extended
// slice: each byte becomes 4 cells of 3 dots, MSB-first, so
// WOMEncodedDots(len(data)) flags in Words of that many words, the bits
// past the last cell zero. Compared with Encode this saves 25 % of the
// dots — the §8 "more efficient coding technique" — at a price the
// caller must understand: every 3-dot pattern is a valid codeword, so
// tampering is NOT locally evident (no HH analogue); detection falls
// back to the record parse and the line hash.
func WOMEncode(dst []uint64, data []byte) []uint64 {
	start := len(dst)
	dst = append(dst, make([]uint64, Words(WOMEncodedDots(len(data))))...)
	out := dst[start:]
	for i, b := range data {
		// A byte's 12 flags start at bit 12i and cross into the next
		// word when fewer than 12 bits of the current one remain.
		k, code := 12*i, uint64(womCodes[b])<<52
		out[k>>6] |= code >> (k & 63)
		if k&63 > 52 {
			out[k>>6+1] |= code << (64 - k&63)
		}
	}
	return dst
}

// WOMDecode reconstructs bytes from the first dots packed heat flags of
// words, written by WOMEncode (or advanced to second-generation
// codewords by a rewrite); words must hold Words(dots) words.
// Structurally every pattern decodes; ErrOddLength-style framing is the
// only failure.
func WOMDecode(words []uint64, dots int) ([]byte, error) {
	if dots%12 != 0 {
		return nil, fmt.Errorf("manchester: WOM flag count %d not a multiple of 12", dots)
	}
	out := make([]byte, dots/12)
	for i := range out {
		k := 12 * i
		code := words[k>>6] << (k & 63)
		if k&63 > 52 {
			code |= words[k>>6+1] >> (64 - k&63)
		}
		for p := 0; p < 4; p++ {
			v := womValues[code>>(61-3*p)&7]
			if v < 0 {
				return nil, ErrWOMInvalid
			}
			out[i] |= byte(v) << (6 - 2*p)
		}
	}
	return out, nil
}
