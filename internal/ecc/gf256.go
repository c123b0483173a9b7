// Package ecc implements Reed-Solomon error correction over GF(2^8),
// providing the "about 15% sector overhead for the sector header, error
// correction, and cyclic redundancy check" the paper adopts from
// Pozidis et al. [39] (§3).
//
// Encoding is table-driven. Each Codec precomputes f·g(x) for every
// byte f, where g(x) is the generator without its leading term, packed
// big-endian into ⌈parity/8⌉ uint64 words (2 KiB per word), and the
// systematic encoder is an LFSR over words that consumes one message
// byte per step. A two-word codec (parity 9–16, the device's sector
// code) also tables f·x^(parity+m) mod g(x) for m = 1..7 and consumes
// eight bytes per step (slicing-by-8): XOR them into the remainder's
// first word, shift the remainder left one word and XOR in one row of
// each table, picked by the eight bytes of the old first word. A step
// is sixteen table loads and XORs; the eight tables take 32 KiB. Bytes
// short of a whole step take the one-byte step through the first
// table, as does every other codec: a loop over other remainder
// lengths measured no faster than the byte step.
//
// Decoding checks before it corrects. g(x) = Π_{i<parity} (x + α^i)
// has exactly the parity distinct roots the syndromes are evaluated
// at, so every syndrome is zero exactly when the stored parity equals
// the parity recomputed from the data part. A clean codeword therefore
// costs one encode and no allocation; only a codeword that fails the
// check runs the syndromes and Berlekamp–Massey, Chien and Forney, and
// the same check verifies their result. A frame forged with valid
// parity is accepted exactly as before, and any bit flip that leaves
// an invalid codeword still takes the correcting path.
//
// Interleaved encodes and checks all of its lanes in one strided pass
// over the buffer (byte j belongs to lane j mod ways), in place; only
// a lane that fails the check is gathered and corrected.
package ecc

// GF(2^8) with the conventional primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator α = 2.
const poly = 0x11D

var (
	expTable [512]byte // doubled so exp lookups avoid a mod
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Add returns a+b in GF(2^8) (XOR).
func Add(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics on division by zero, which in
// a correctly implemented decoder can only arise from a logic error.
func Div(a, b byte) byte {
	if b == 0 {
		panic("ecc: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Panics on zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("ecc: inverse of zero in GF(256)")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns α^n for n >= 0.
func Exp(n int) byte { return expTable[n%255] }

// Log returns log_α(a). Panics on zero.
func Log(a byte) int {
	if a == 0 {
		panic("ecc: log of zero in GF(256)")
	}
	return int(logTable[a])
}

// polyEval evaluates polynomial p (coefficients highest-degree first)
// at x using Horner's rule.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

// polyMul multiplies two polynomials over GF(2^8), highest-degree
// first.
func polyMul(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= Mul(ca, cb)
		}
	}
	return out
}

// polyScale multiplies polynomial p by scalar s.
func polyScale(p []byte, s byte) []byte {
	out := make([]byte, len(p))
	for i, c := range p {
		out[i] = Mul(c, s)
	}
	return out
}

// polyAdd adds two polynomials (highest-degree first, possibly of
// different length).
func polyAdd(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out[n-len(a):], a)
	for i := 0; i < len(b); i++ {
		out[n-len(b)+i] ^= b[i]
	}
	return out
}
