package ecc

import (
	"errors"
	"fmt"
)

// Codec is a systematic Reed-Solomon RS(n, k) codec over GF(2^8) with
// n = k + parity, n <= 255. It corrects up to parity/2 byte errors per
// codeword at unknown positions, or up to parity erasures at known
// positions.
type Codec struct {
	parity int
	words  int // ⌈parity/8⌉: uint64 words per packed remainder
	// tab holds the packed remainder tables, words per row, 256 rows
	// per table: table m, row f is f·x^(parity+m) mod g(x). Table 0 is
	// f·g(x) without its x^parity term, the one-byte LFSR step; a
	// two-word codec (parity 9–16) also carries tables 1–7 for the
	// eight-byte step.
	tab []uint64
}

// maxWords is the packed remainder length of the largest parity (254).
const maxWords = (254 + 7) / 8

// sliceBytes is how many message bytes one table-driven step consumes.
const sliceBytes = 8

// ErrTooManyErrors is returned when a codeword is corrupted beyond the
// code's correction capability.
var ErrTooManyErrors = errors.New("ecc: too many errors to correct")

// NewCodec builds a codec with the given number of parity bytes.
func NewCodec(parity int) *Codec {
	if parity <= 0 || parity >= 255 {
		panic(fmt.Sprintf("ecc: invalid parity count %d", parity))
	}
	gen := []byte{1}
	for i := 0; i < parity; i++ {
		gen = polyMul(gen, []byte{1, Exp(i)})
	}
	c := &Codec{parity: parity, words: (parity + 7) / 8}
	tables := 1
	if c.words == 2 {
		tables = sliceBytes
	}
	w := c.words
	c.tab = make([]uint64, tables*256*w)
	for f := 1; f < 256; f++ {
		row := c.tab[f*w : (f+1)*w]
		for i, g := range gen[1:] {
			row[i>>3] |= uint64(Mul(g, byte(f))) << (56 - 8*(i&7))
		}
	}
	// Table m+1 is table m times x: one zero-input LFSR step, shifting
	// the row left one byte and folding its outgoing top byte back in
	// through table 0.
	for m := 1; m < tables; m++ {
		for f := 0; f < 256; f++ {
			prev := c.tab[((m-1)*256+f)*w : ((m-1)*256+f+1)*w]
			row := c.tab[(m*256+f)*w : (m*256+f+1)*w]
			top := int(prev[0] >> 56)
			for k := range row {
				v := prev[k] << 8
				if k+1 < w {
					v |= prev[k+1] >> 56
				}
				row[k] = v ^ c.tab[top*w+k]
			}
		}
	}
	return c
}

// Parity returns the number of parity bytes per codeword.
func (c *Codec) Parity() int { return c.parity }

// MaxData returns the maximum data length per codeword.
func (c *Codec) MaxData() int { return 255 - c.parity }

// remainders sets st[j·words:(j+1)·words] to the packed parity,
// (lane_j · x^parity) mod g(x), of lane j of data for each of the ways
// lanes, reading the buffer in place: byte i feeds lane i mod ways, with
// no per-lane gathering. A lane's remainder is packed big-endian, so
// its first byte is the top byte of the first word. A lane with no
// bytes keeps the zero remainder.
//
// A two-word codec (parity 9–16, the device's sector code) advances
// each lane eight bytes per step over the bulk of the buffer, every
// whole block of 8·ways bytes (slicing-by-8, as in Kounavis and
// Berry's table-driven CRCs; see sliced2). The bytes after the last
// whole block, and every byte of any other codec, take the one-byte
// LFSR step: XOR the byte into the first remainder byte, shift left
// one byte and XOR in table 0's row. Pad bytes past parity stay zero
// because every table is zero there.
//
// Table 0 costs 256·words words, 2 KiB per remainder word; the eight
// tables of a two-word codec cost 32 KiB.
func (c *Codec) remainders(st []uint64, data []byte, ways int) {
	clear(st)
	n := 0
	if c.words == 2 {
		n = len(data) / (sliceBytes * ways) * (sliceBytes * ways)
		c.sliced2(st, data[:n], ways)
	}
	tab, w := c.tab, c.words
	lane := 0
	for _, d := range data[n:] {
		r := st[lane*w : lane*w+w : lane*w+w]
		hi := r[0]
		f := int(d^byte(hi>>56)) * w
		t := tab[f : f+len(r) : f+len(r)]
		for k := 1; k < len(r); k++ {
			lo := r[k]
			r[k-1] = (hi<<8 | lo>>56) ^ t[k-1]
			hi = lo
		}
		r[len(r)-1] = hi<<8 ^ t[len(r)-1]
		if lane++; lane == ways {
			lane = 0
		}
	}
}

// sliced2 runs the eight-byte step over data, a whole number of
// 8·ways-byte blocks, for a two-word remainder: XOR the lane's next
// eight bytes into the first word, shift the remainder left one word
// and XOR in table 7−j's row for byte j of the old first word, j < 8.
// It is unrolled over a fixed-size table so both words stay in
// registers. This is the one sliced shape because it is the only one
// measured faster than the one-byte step: it is the device's sector
// code, and a loop over the words of other remainder lengths was no
// faster, so those codecs keep the byte step and table 0 alone.
func (c *Codec) sliced2(st []uint64, data []byte, ways int) {
	t := (*[sliceBytes * 256 * 2]uint64)(c.tab)
	for lane := range ways {
		r0, r1 := st[2*lane], st[2*lane+1]
		for i := lane; i < len(data); i += sliceBytes * ways {
			// Byte j of the first word is the coefficient of
			// x^(parity+7−j), so it selects a row of table 7−j (at
			// offset (7−j)·512 words).
			b := data[i : i+7*ways+1]
			f0 := 7*512 + int(byte(r0>>56)^b[0])*2
			f1 := 6*512 + int(byte(r0>>48)^b[ways])*2
			f2 := 5*512 + int(byte(r0>>40)^b[2*ways])*2
			f3 := 4*512 + int(byte(r0>>32)^b[3*ways])*2
			f4 := 3*512 + int(byte(r0>>24)^b[4*ways])*2
			f5 := 2*512 + int(byte(r0>>16)^b[5*ways])*2
			f6 := 1*512 + int(byte(r0>>8)^b[6*ways])*2
			f7 := int(byte(r0)^b[7*ways]) * 2
			r0, r1 = r1^t[f0]^t[f1]^t[f2]^t[f3]^t[f4]^t[f5]^t[f6]^t[f7],
				t[f0+1]^t[f1+1]^t[f2+1]^t[f3+1]^t[f4+1]^t[f5+1]^t[f6+1]^t[f7+1]
		}
		st[2*lane], st[2*lane+1] = r0, r1
	}
}

// remainderByte returns byte i of the packed remainder r.
func remainderByte(r []uint64, i int) byte { return byte(r[i>>3] >> (56 - 8*(i&7))) }

// matches reports whether parity equals the packed remainder r.
func matches(r []uint64, parity []byte) bool {
	for i, p := range parity {
		if remainderByte(r, i) != p {
			return false
		}
	}
	return true
}

// clean reports whether cw is a codeword. Because g(x) = Π_{i<parity}
// (x + α^i) has exactly the parity distinct roots the syndromes are
// evaluated at, every syndrome is zero exactly when cw is a multiple of
// g(x) — that is, when its stored parity equals the parity recomputed
// from its data part. That comparison costs one encode.
func (c *Codec) clean(cw []byte) bool {
	var r [maxWords]uint64
	k := len(cw) - c.parity
	c.remainders(r[:c.words], cw[:k], 1)
	return matches(r[:c.words], cw[k:])
}

// Encode appends the parity bytes for data and returns data‖parity.
// data is not modified.
func (c *Codec) Encode(data []byte) []byte {
	if len(data) == 0 || len(data) > c.MaxData() {
		panic(fmt.Sprintf("ecc: data length %d outside [1,%d]", len(data), c.MaxData()))
	}
	// Systematic encoding: parity = (data · x^parity) mod gen.
	var r [maxWords]uint64
	c.remainders(r[:c.words], data, 1)
	out := make([]byte, len(data)+c.parity)
	copy(out, data)
	for i := range c.parity {
		out[len(data)+i] = remainderByte(r[:], i)
	}
	return out
}

// syndromes computes the parity syndromes of a codeword the clean
// check has rejected.
func (c *Codec) syndromes(cw []byte) []byte {
	syn := make([]byte, c.parity)
	for i := range syn {
		syn[i] = polyEval(cw, Exp(i))
	}
	return syn
}

// Decode corrects cw in place (data‖parity as produced by Encode) and
// returns the corrected data portion along with the number of byte
// errors fixed. It returns ErrTooManyErrors when correction fails.
func (c *Codec) Decode(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= c.parity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d invalid for parity %d", len(cw), c.parity)
	}
	if c.clean(cw) {
		return cw[:len(cw)-c.parity], 0, nil
	}
	syn := c.syndromes(cw)

	// Berlekamp-Massey: find the error locator polynomial sigma
	// (lowest-degree-first here for convenience).
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for n := 0; n < c.parity; n++ {
		var delta byte = syn[n]
		for i := 1; i <= l; i++ {
			if i < len(sigma) && n-i >= 0 {
				delta ^= Mul(sigma[i], syn[n-i])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := append([]byte(nil), sigma...)
			coef := Div(delta, b)
			shifted := make([]byte, m)
			shifted = append(shifted, polyScale(prev, coef)...)
			sigma = addLow(sigma, shifted)
			l = n + 1 - l
			prev = tmp
			b = delta
			m = 1
		} else {
			coef := Div(delta, b)
			shifted := make([]byte, m)
			shifted = append(shifted, polyScale(prev, coef)...)
			sigma = addLow(sigma, shifted)
			m++
		}
	}
	numErrs := l
	if numErrs*2 > c.parity {
		return nil, 0, ErrTooManyErrors
	}

	// Chien search: roots of sigma give error positions.
	n := len(cw)
	var errPos []int
	for pos := 0; pos < n; pos++ {
		// Position pos (0 = first byte) corresponds to power n-1-pos.
		x := Exp(255 - (n - 1 - pos)) // α^{-(n-1-pos)}
		var v byte
		for i := len(sigma) - 1; i >= 0; i-- {
			v = Mul(v, x) ^ sigma[i]
		}
		if v == 0 {
			errPos = append(errPos, pos)
		}
	}
	if len(errPos) != numErrs {
		return nil, 0, ErrTooManyErrors
	}

	// Forney: error magnitudes from the evaluator polynomial
	// omega = (syn · sigma) mod x^parity (lowest-first).
	omega := make([]byte, c.parity)
	for i := 0; i < c.parity; i++ {
		var v byte
		for j := 0; j <= i && j < len(sigma); j++ {
			v ^= Mul(sigma[j], syn[i-j])
		}
		omega[i] = v
	}
	// Formal derivative of sigma (lowest-first): odd-power terms.
	for _, pos := range errPos {
		xInv := Exp(255 - (n - 1 - pos)) // α^{-power}
		x := Exp(n - 1 - pos)
		var num byte
		for i := len(omega) - 1; i >= 0; i-- {
			num = Mul(num, xInv) ^ omega[i]
		}
		var den byte
		for i := 1; i < len(sigma); i += 2 {
			// derivative term sigma[i] * x^{i-1}, evaluated at xInv
			t := sigma[i]
			for k := 0; k < i-1; k++ {
				t = Mul(t, xInv)
			}
			den ^= t
		}
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		// Forney with fcr=0: e = X_j · Ω(X_j^{-1}) / Λ'(X_j^{-1}).
		mag := Mul(x, Div(num, den))
		cw[pos] ^= mag
	}

	// Verify.
	if !c.clean(cw) {
		return nil, 0, ErrTooManyErrors
	}
	return cw[:len(cw)-c.parity], numErrs, nil
}

// DecodeErasures corrects cw in place given the positions of the lost
// bytes (0-based indexes into cw, data‖parity as produced by Encode)
// and returns the corrected data portion. Because the loss positions
// are known — a failed device in an array, an unreadable sector — the
// code corrects up to parity erasures per codeword, double the
// parity/2 unknown-position errors Decode can fix. The bytes at the
// given positions are reconstructed regardless of their current
// contents; bytes outside the positions must be intact (mixed
// erasure-plus-error patterns are rejected by the final syndrome
// check).
func (c *Codec) DecodeErasures(cw []byte, positions []int) (data []byte, err error) {
	if len(cw) <= c.parity || len(cw) > 255 {
		return nil, fmt.Errorf("ecc: codeword length %d invalid for parity %d", len(cw), c.parity)
	}
	if len(positions) > c.parity {
		return nil, ErrTooManyErrors
	}
	seen := make(map[int]bool, len(positions))
	for _, pos := range positions {
		if pos < 0 || pos >= len(cw) {
			return nil, fmt.Errorf("ecc: erasure position %d outside codeword of %d bytes", pos, len(cw))
		}
		if seen[pos] {
			return nil, fmt.Errorf("ecc: duplicate erasure position %d", pos)
		}
		seen[pos] = true
		cw[pos] = 0
	}
	if c.clean(cw) {
		// The erased bytes really were zero (or nothing was erased).
		return cw[:len(cw)-c.parity], nil
	}
	if len(positions) == 0 {
		return nil, ErrTooManyErrors
	}
	syn := c.syndromes(cw)

	// With the erasures zeroed, the codeword differs from the true one
	// by exactly the erased magnitudes m_i at known locators
	// X_i = α^{n-1-pos_i}, so the syndromes (fcr=0, as in syndromes())
	// give the linear system  s_j = Σ_i m_i · X_i^j.  Solve the first
	// e equations by Gaussian elimination over GF(2^8); the matrix is
	// Vandermonde in the distinct X_i, hence nonsingular.
	n := len(cw)
	e := len(positions)
	mat := make([][]byte, e)
	for j := 0; j < e; j++ {
		row := make([]byte, e+1)
		for i, pos := range positions {
			x := Exp((n - 1 - pos) % 255) // X_i = α^{n-1-pos}
			v := byte(1)
			for k := 0; k < j; k++ {
				v = Mul(v, x)
			}
			row[i] = v
		}
		row[e] = syn[j]
		mat[j] = row
	}
	for col := 0; col < e; col++ {
		pivot := -1
		for r := col; r < e; r++ {
			if mat[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrTooManyErrors
		}
		mat[col], mat[pivot] = mat[pivot], mat[col]
		inv := Div(1, mat[col][col])
		for k := col; k <= e; k++ {
			mat[col][k] = Mul(mat[col][k], inv)
		}
		for r := 0; r < e; r++ {
			if r == col || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			for k := col; k <= e; k++ {
				mat[r][k] ^= Mul(f, mat[col][k])
			}
		}
	}
	for i, pos := range positions {
		cw[pos] = mat[i][e]
	}

	// A codeword that still has nonzero syndromes was corrupted
	// outside the declared erasures.
	if !c.clean(cw) {
		return nil, ErrTooManyErrors
	}
	return cw[:len(cw)-c.parity], nil
}

// addLow adds two lowest-degree-first polynomials.
func addLow(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out, a)
	for i := range b {
		out[i] ^= b[i]
	}
	// trim trailing zeros (highest-degree coefficients)
	for len(out) > 1 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// Interleaved is a codec that splits long buffers across several
// interleaved RS codewords so a sector larger than 255 bytes can be
// protected, and burst errors spread across codewords.
type Interleaved struct {
	codec *Codec
	ways  int
}

// NewInterleaved builds a ways-way interleaved codec with the given
// parity per codeword.
func NewInterleaved(parity, ways int) *Interleaved {
	if ways <= 0 {
		panic("ecc: non-positive interleave ways")
	}
	return &Interleaved{codec: NewCodec(parity), ways: ways}
}

// ParityBytes returns the total parity overhead for any encode.
func (il *Interleaved) ParityBytes() int { return il.ways * il.codec.parity }

// MaxData returns the maximum data length per Encode call.
func (il *Interleaved) MaxData() int { return il.ways * il.codec.MaxData() }

// Encode protects data, returning data‖parity. Bytes are assigned to
// codewords round-robin (byte i goes to codeword i mod ways).
func (il *Interleaved) Encode(data []byte) []byte {
	out := make([]byte, len(data)+il.ParityBytes())
	copy(out, data)
	il.PutParity(out, len(data))
	return out
}

// PutParity writes the parity of buf[:dataLen] into buf[dataLen:], the
// allocation-free form of Encode: afterwards buf holds exactly what
// Encode(buf[:dataLen]) returns. len(buf) must be
// dataLen+ParityBytes().
func (il *Interleaved) PutParity(buf []byte, dataLen int) {
	if dataLen <= 0 || dataLen > il.MaxData() {
		panic(fmt.Sprintf("ecc: interleaved data length %d outside [1,%d]", dataLen, il.MaxData()))
	}
	if len(buf) != dataLen+il.ParityBytes() {
		panic(fmt.Sprintf("ecc: buffer %d does not match data %d + parity %d",
			len(buf), dataLen, il.ParityBytes()))
	}
	c, w := il.codec, il.codec.words
	var stack [laneStack]uint64
	st := il.lanes(stack[:])
	c.remainders(st, buf[:dataLen], il.ways)
	for lane := range il.ways {
		par := buf[dataLen+lane*c.parity : dataLen+(lane+1)*c.parity]
		for i := range par {
			par[i] = remainderByte(st[lane*w:], i)
		}
	}
}

// laneStack is the lane state PutParity and Decode keep on the stack:
// 4 lanes of parity 16 need 8 words, and any geometry up to 64 words
// stays allocation-free.
const laneStack = 64

// lanes returns room for every lane's packed remainder, inside buf
// when it fits.
func (il *Interleaved) lanes(buf []uint64) []uint64 {
	n := il.ways * il.codec.words
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint64, n)
}

// Decode corrects buf (as produced by Encode, with dataLen data bytes)
// in place and returns its corrected data portion, buf[:dataLen], and
// the total byte corrections. Every lane is first checked in one
// strided pass (see Codec.clean); only a lane that fails the check is
// gathered and corrected by Codec.Decode, and its corrected bytes,
// parity included, are written back to buf. On error, lanes before
// the failing one may already be corrected.
func (il *Interleaved) Decode(buf []byte, dataLen int) (data []byte, corrected int, err error) {
	if dataLen <= 0 || len(buf) != dataLen+il.ParityBytes() {
		return nil, 0, fmt.Errorf("ecc: buffer %d does not match data %d + parity %d",
			len(buf), dataLen, il.ParityBytes())
	}
	c := il.codec
	if longest := (dataLen + il.ways - 1) / il.ways; longest > c.MaxData() {
		return nil, 0, fmt.Errorf("ecc: codeword length %d invalid for parity %d", longest+c.parity, c.parity)
	}
	w := c.words
	var stack [laneStack]uint64
	st := il.lanes(stack[:])
	c.remainders(st, buf[:dataLen], il.ways)
	var cw [255]byte
	for lane := range il.ways {
		par := buf[dataLen+lane*c.parity : dataLen+(lane+1)*c.parity]
		if matches(st[lane*w:lane*w+w], par) {
			continue
		}
		k := 0
		for i := lane; i < dataLen; i += il.ways {
			cw[k] = buf[i]
			k++
		}
		if k == 0 {
			cw[0], k = 0, 1
		}
		copy(cw[k:], par)
		fixed, n, derr := c.Decode(cw[:k+c.parity])
		if derr != nil {
			return nil, corrected, derr
		}
		corrected += n
		for i, j := lane, 0; i < dataLen; i, j = i+il.ways, j+1 {
			buf[i] = fixed[j]
		}
		copy(par, cw[k:])
	}
	return buf[:dataLen], corrected, nil
}

// HeadDelta patches the parity of an interleaved codeword when only its
// first bytes change. A systematic Reed–Solomon code is linear, so the
// parity of the changed buffer is the old parity XOR the parity of the
// change alone: for each changed head byte, f·x^e mod g(x) in its lane,
// where f is the byte's change and e the power of x the byte carries
// (the parity count plus the lane bytes after it). HeadDelta holds one
// 256-row table of those remainders per distinct power among the head
// bytes, parity bytes per row; for the device's 528-byte frames and a
// 12-byte head that is three tables, 12 KiB.
type HeadDelta struct {
	dataLen, parity, ways int
	// tabs[t][f·parity:(f+1)·parity] is f·x^e_t mod g(x), byte by byte.
	tabs [][]byte
	// tabOf[i] is the table of head byte i.
	tabOf []int
}

// HeadDelta returns the patcher for the first n data bytes of codewords
// with dataLen data bytes. It panics unless 0 < n <= dataLen and
// dataLen is a valid interleaved data length.
func (il *Interleaved) HeadDelta(dataLen, n int) *HeadDelta {
	if dataLen <= 0 || dataLen > il.MaxData() || n <= 0 || n > dataLen {
		panic(fmt.Sprintf("ecc: head of %d bytes of %d-byte data outside [1,%d]", n, dataLen, il.MaxData()))
	}
	c := il.codec
	h := &HeadDelta{dataLen: dataLen, parity: c.parity, ways: il.ways, tabOf: make([]int, n)}
	byLen := map[int]int{}
	var st [maxWords]uint64
	msg := make([]byte, c.MaxData())
	for i := range h.tabOf {
		lane := i % il.ways
		// The lane's bytes from this one to its end: a message of that
		// length with a leading 1 has remainder x^e mod g(x).
		tail := (dataLen-lane+il.ways-1)/il.ways - i/il.ways
		t, ok := byLen[tail]
		if !ok {
			t = len(h.tabs)
			byLen[tail] = t
			clear(msg)
			msg[0] = 1
			c.remainders(st[:c.words], msg[:tail], 1)
			tab := make([]byte, 256*c.parity)
			for f := 1; f < 256; f++ {
				for k := range c.parity {
					tab[f*c.parity+k] = Mul(byte(f), remainderByte(st[:], k))
				}
			}
			h.tabs = append(h.tabs, tab)
		}
		h.tabOf[i] = t
	}
	return h
}

// Patch XORs into buf's parity (buf is data‖parity as Encode produces,
// with the patcher's data length) the change that delta, the XOR of
// the old and new values of the first len(delta) data bytes, makes.
// Writing the new head bytes into buf is the caller's. A buf whose
// parity was right for the old head then holds the parity Encode gives
// for the new one.
func (h *HeadDelta) Patch(buf []byte, delta []byte) {
	if len(buf) != h.dataLen+h.ways*h.parity || len(delta) > len(h.tabOf) {
		panic(fmt.Sprintf("ecc: patch of %d head bytes into a %d-byte buffer", len(delta), len(buf)))
	}
	for i, f := range delta {
		if f == 0 {
			continue
		}
		lane := i % h.ways
		par := buf[h.dataLen+lane*h.parity : h.dataLen+(lane+1)*h.parity]
		row := h.tabs[h.tabOf[i]][int(f)*h.parity : (int(f)+1)*h.parity]
		for k := range par {
			par[k] ^= row[k]
		}
	}
}
