package array

import (
	"bytes"
	"testing"

	"sero/internal/ecc"
	"sero/internal/sim"
)

// TestMirroredParityMatchesMul writes and overwrites random data blocks
// of arrays with one and with two parity members and checks every
// parity mirror against parity recomputed from the data mirrors with
// ecc.Mul for every coefficient. Every coefficient of the one-parity
// code is 1, which takes the word-wide XOR, and none of the two-parity
// code's is, so the two arrays pit each path against the Mul
// recomputation.
func TestMirroredParityMatchesMul(t *testing.T) {
	for _, g := range []struct{ n, p int }{{3, 1}, {4, 2}} {
		a := mustBuild(t, g.n, g.p, 8, 64)
		for _, col := range a.coef {
			for _, c := range col {
				if c == 1 != (g.p == 1) {
					t.Fatalf("n=%d p=%d: coefficients %v", g.n, g.p, a.coef)
				}
			}
		}
		rng := sim.NewRNG(uint64(g.p))
		for op := 0; op < 200; op++ {
			// A small window so most writes overwrite a block.
			gpba := uint64(rng.Intn(48))
			if err := a.WriteBlocksTraced(nil, gpba, [][]byte{payload(rng.Uint64())}); err != nil {
				t.Fatal(err)
			}
		}
		for row := 0; row < a.rows; row++ {
			for off := 0; off < a.su; off++ {
				lpba := uint64(row*a.su + off)
				want := make([][]byte, g.p)
				for j := range want {
					want[j] = make([]byte, len(payload(0)))
				}
				for dcol := 0; dcol < a.d; dcol++ {
					data := a.mirror[a.dataMember(row, dcol)][lpba]
					for j := range want {
						for b := range data {
							want[j][b] ^= ecc.Mul(a.coef[dcol][j], data[b])
						}
					}
				}
				for j := range want {
					got := a.mirror[(row%a.n+j)%a.n][lpba]
					if got == nil {
						got = make([]byte, len(want[j]))
					}
					if !bytes.Equal(got, want[j]) {
						t.Fatalf("n=%d p=%d row %d block %d: parity %d mirror differs from the Mul recomputation",
							g.n, g.p, row, off, j)
					}
				}
			}
		}
	}
}
