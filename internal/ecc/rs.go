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
	gen    []byte // generator polynomial, highest-degree first
}

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
	return &Codec{parity: parity, gen: gen}
}

// Parity returns the number of parity bytes per codeword.
func (c *Codec) Parity() int { return c.parity }

// MaxData returns the maximum data length per codeword.
func (c *Codec) MaxData() int { return 255 - c.parity }

// Encode appends the parity bytes for data and returns data‖parity.
// data is not modified.
func (c *Codec) Encode(data []byte) []byte {
	if len(data) == 0 || len(data) > c.MaxData() {
		panic(fmt.Sprintf("ecc: data length %d outside [1,%d]", len(data), c.MaxData()))
	}
	// Systematic encoding: parity = (data · x^parity) mod gen.
	rem := make([]byte, c.parity)
	for _, d := range data {
		factor := d ^ rem[0]
		copy(rem, rem[1:])
		rem[c.parity-1] = 0
		if factor != 0 {
			for i := 0; i < c.parity; i++ {
				rem[i] ^= Mul(c.gen[i+1], factor)
			}
		}
	}
	out := make([]byte, 0, len(data)+c.parity)
	out = append(out, data...)
	out = append(out, rem...)
	return out
}

// syndromes computes the parity syndromes of a codeword; all-zero means
// no detectable error.
func (c *Codec) syndromes(cw []byte) ([]byte, bool) {
	syn := make([]byte, c.parity)
	clean := true
	for i := 0; i < c.parity; i++ {
		syn[i] = polyEval(cw, Exp(i))
		if syn[i] != 0 {
			clean = false
		}
	}
	return syn, clean
}

// Decode corrects cw in place (data‖parity as produced by Encode) and
// returns the corrected data portion along with the number of byte
// errors fixed. It returns ErrTooManyErrors when correction fails.
func (c *Codec) Decode(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= c.parity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d invalid for parity %d", len(cw), c.parity)
	}
	syn, clean := c.syndromes(cw)
	if clean {
		return cw[:len(cw)-c.parity], 0, nil
	}

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
	if _, ok := c.syndromes(cw); !ok {
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
	syn, clean := c.syndromes(cw)
	if clean {
		// The erased bytes really were zero (or nothing was erased).
		return cw[:len(cw)-c.parity], nil
	}
	if len(positions) == 0 {
		return nil, ErrTooManyErrors
	}

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
	if _, ok := c.syndromes(cw); !ok {
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
	if len(data) == 0 || len(data) > il.MaxData() {
		panic(fmt.Sprintf("ecc: interleaved data length %d outside [1,%d]", len(data), il.MaxData()))
	}
	parity := make([]byte, 0, il.ParityBytes())
	for w := 0; w < il.ways; w++ {
		var lane []byte
		for i := w; i < len(data); i += il.ways {
			lane = append(lane, data[i])
		}
		if len(lane) == 0 {
			lane = []byte{0}
		}
		cw := il.codec.Encode(lane)
		parity = append(parity, cw[len(lane):]...)
	}
	out := make([]byte, 0, len(data)+len(parity))
	out = append(out, data...)
	out = append(out, parity...)
	return out
}

// Decode corrects buf (as produced by Encode, with dataLen data bytes)
// and returns the corrected data and total byte corrections.
func (il *Interleaved) Decode(buf []byte, dataLen int) (data []byte, corrected int, err error) {
	if dataLen <= 0 || len(buf) != dataLen+il.ParityBytes() {
		return nil, 0, fmt.Errorf("ecc: buffer %d does not match data %d + parity %d",
			len(buf), dataLen, il.ParityBytes())
	}
	data = append([]byte(nil), buf[:dataLen]...)
	parityOff := dataLen
	for w := 0; w < il.ways; w++ {
		var lane []byte
		var idx []int
		for i := w; i < dataLen; i += il.ways {
			lane = append(lane, data[i])
			idx = append(idx, i)
		}
		if len(lane) == 0 {
			lane = []byte{0}
		}
		cw := append(lane, buf[parityOff:parityOff+il.codec.parity]...)
		parityOff += il.codec.parity
		fixed, n, derr := il.codec.Decode(cw)
		if derr != nil {
			return nil, corrected, derr
		}
		corrected += n
		for j, i := range idx {
			data[i] = fixed[j]
		}
	}
	return data, corrected, nil
}
