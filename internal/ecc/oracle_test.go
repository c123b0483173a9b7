package ecc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"sero/internal/sim"
)

// eccOracleHash pins the observable behaviour of the codecs under one
// fixed-seed scenario: Codec.Encode outputs at several parities,
// Interleaved frames at two geometries, Decode results (data,
// corrected count, error) for codewords carrying from zero to
// parity/2+3 random byte errors, interleaved bursts that cross lanes,
// and DecodeErasures results with and without hidden errors outside
// the declared erasures. Any change to an encoded byte, a corrected
// byte, a corrected count or which inputs fail moves the digest.
const eccOracleHash = "149f65c6e5b2fff3bc42dd1a7365d6ccec44afc8629c9874ff7d961b42bec57b"

func TestECCOracle(t *testing.T) {
	h := sha256.New()
	rng := sim.NewRNG(2024)
	for _, parity := range []int{2, 8, 16, 32} {
		oracleCodec(NewCodec(parity), rng, h)
	}
	for _, geo := range [][2]int{{16, 4}, {8, 3}} {
		oracleInterleaved(NewInterleaved(geo[0], geo[1]), rng, h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != eccOracleHash {
		t.Fatalf("ecc oracle hash %s, want %s", got, eccOracleHash)
	}
}

func oracleBytes(rng *sim.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// oracleCodec folds encodes, error decodes and erasure decodes of one
// codec into h.
func oracleCodec(c *Codec, rng *sim.RNG, h hash.Hash) {
	p := c.Parity()
	lengths := []int{1, 2, p, c.MaxData() / 2, c.MaxData()}
	for _, n := range lengths {
		data := oracleBytes(rng, n)
		cw := c.Encode(data)
		fmt.Fprintf(h, "enc %d %d %x\n", p, n, cw)

		for errs := 0; errs <= p/2+3; errs++ {
			bad := append([]byte(nil), cw...)
			perm := rng.Perm(len(bad))
			for i := 0; i < errs && i < len(perm); i++ {
				bad[perm[i]] ^= byte(1 + rng.Intn(255))
			}
			got, fixed, err := c.Decode(bad)
			fmt.Fprintf(h, "dec %d %d %d %x %d %v\n", p, n, errs, got, fixed, err)
		}

		for _, e := range []int{0, 1, p / 2, p} {
			for hidden := 0; hidden <= 2; hidden++ {
				bad := append([]byte(nil), cw...)
				perm := rng.Perm(len(bad))
				if e+hidden > len(perm) {
					continue
				}
				positions := append([]int(nil), perm[:e]...)
				for _, pos := range positions {
					bad[pos] = byte(rng.Uint64())
				}
				for _, pos := range perm[e : e+hidden] {
					bad[pos] ^= byte(1 + rng.Intn(255))
				}
				got, err := c.DecodeErasures(bad, positions)
				fmt.Fprintf(h, "era %d %d %d %d %x %v\n", p, n, e, hidden, got, err)
			}
		}
	}
}

// oracleInterleaved folds interleaved frames, random-error decodes and
// cross-lane burst decodes into h.
func oracleInterleaved(il *Interleaved, rng *sim.RNG, h hash.Hash) {
	p, ways := il.codec.Parity(), il.ways
	for _, n := range []int{1, ways - 1, ways, 3*ways + 1, 528, il.MaxData()} {
		if n <= 0 {
			continue
		}
		data := oracleBytes(rng, n)
		frame := il.Encode(data)
		fmt.Fprintf(h, "ienc %d %d %d %x\n", p, ways, n, frame)

		for errs := 0; errs <= p/2+3; errs++ {
			bad := append([]byte(nil), frame...)
			perm := rng.Perm(len(bad))
			for i := 0; i < errs && i < len(perm); i++ {
				bad[perm[i]] ^= byte(1 + rng.Intn(255))
			}
			got, fixed, err := il.Decode(bad, n)
			fmt.Fprintf(h, "idec %d %d %d %d %x %d %v\n", p, ways, n, errs, got, fixed, err)
		}

		for _, burst := range []int{1, ways * p / 2, ways*p/2 + 1, ways*p/2 + ways + 1} {
			if burst > n {
				continue
			}
			bad := append([]byte(nil), frame...)
			start := rng.Intn(n - burst + 1)
			val := byte(1 + rng.Intn(255))
			for i := start; i < start+burst; i++ {
				bad[i] ^= val
			}
			got, fixed, err := il.Decode(bad, n)
			fmt.Fprintf(h, "burst %d %d %d %d %d %x %d %v\n", p, ways, n, start, burst, got, fixed, err)
		}
	}
}
