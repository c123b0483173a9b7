package device

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"sero/internal/medium"
)

// oracleHash pins the observable behaviour of the medium under one
// fixed scenario: block writes, an EWS seal and its crosstalk
// neighbours, a weak-pulse partial damage, every stuck kind, direct
// magnetic corruption, region replacement and a bulk erase, read back
// with MRS on a default-noise sled and on a sled noisy enough that no
// read can skip its noise draws. The digest covers the snapshot bytes,
// every MRS payload and error, and the next noise draw of each medium,
// so any change to the stored state, the decoded bits or the position
// of the noise stream moves it.
const oracleHash = "1e78c0e832fee3245dbfcb817e9600bc932bdc16163c6fa5d0c7088447a3040f"

func TestMediumOracle(t *testing.T) {
	h := sha256.New()
	oracleDefaultSled(t, h)
	oracleNoisySled(t, h)
	if got := hex.EncodeToString(h.Sum(nil)); got != oracleHash {
		t.Fatalf("oracle hash %s, want %s", got, oracleHash)
	}
}

// oracleReadAll folds an MRS of every block into h.
func oracleReadAll(d *Device, h hash.Hash) {
	for pba := uint64(0); pba < uint64(d.Blocks()); pba++ {
		buf, err := d.MRS(pba)
		fmt.Fprintf(h, "mrs %d %x %v\n", pba, buf, err)
	}
}

// oracleNextDraw folds the medium's next noise draw into h: the analog
// read of a healthy dot is its noiseless level plus σ times the draw.
func oracleNextDraw(m *medium.Medium, i int, h hash.Hash) {
	fmt.Fprintf(h, "draw %x\n", math.Float64bits(m.MRBAnalog(i)))
}

func oracleDevice(blocks int, mp medium.Params) *Device {
	p := DefaultParams(blocks)
	p.Medium = mp
	return New(p)
}

func oraclePayloads(n int, salt byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = pattern(salt + byte(i*7))
	}
	return out
}

func oracleDefaultSled(t *testing.T, h hash.Hash) {
	const blocks = 16
	mp := medium.DefaultParams(blocks, DotsPerBlock)
	mp.Seed = 11
	d := oracleDevice(blocks, mp)
	med := d.Medium()
	if err := d.WriteBlocksTraced(nil, 0, oraclePayloads(blocks, 3)); err != nil {
		t.Fatal(err)
	}
	li, err := d.HeatLine(4, 2)
	fmt.Fprintf(h, "heat %x %v\n", li.Record.Hash, err)
	base := func(pba int) int { return pba * DotsPerBlock }
	med.SetStuck(base(9)+200, medium.StuckUp)
	med.SetStuck(base(9)+300, medium.StuckDown)
	med.SetStuck(base(9)+400, medium.StuckDead)
	med.CorruptMagnetic(base(10) + 500)
	med.CorruptMagnetic(base(11) + 4000)
	oracleReadAll(d, h)
	h.Write(med.Snapshot())

	med.ReplaceRegion(base(9), base(10))
	buf, err := d.MRS(9)
	fmt.Fprintf(h, "replaced %x %v\n", buf, err)
	fmt.Fprintf(h, "rewrite %v\n", d.MWS(9, pattern(99)))
	oracleReadAll(d, h)
	med.BulkErase()
	oracleReadAll(d, h)
	h.Write(med.Snapshot())
	oracleNextDraw(med, base(12)+17, h)
}

func oracleNoisySled(t *testing.T, h hash.Hash) {
	const blocks = 8
	mp := medium.DefaultParams(blocks, DotsPerBlock)
	mp.Seed = 5
	mp.ReadNoiseSigma = 0.12 // 0.12 × 12.01 > 1: no read may skip its draws
	mp.PulseTempC = 700      // one pulse damages a dot only partially
	d := oracleDevice(blocks, mp)
	med := d.Medium()
	if err := d.WriteBlocksTraced(nil, 0, oraclePayloads(blocks, 41)); err != nil {
		t.Fatal(err)
	}
	med.EWB(2*DotsPerBlock + 1000)
	fmt.Fprintf(h, "partial %v %v\n", med.Damage(2*DotsPerBlock+1000), med.State(2*DotsPerBlock+1000))
	oracleReadAll(d, h)
	if err := d.WriteBlocksTraced(nil, 1, oraclePayloads(3, 77)); err != nil {
		t.Fatal(err)
	}
	oracleReadAll(d, h)
	h.Write(med.Snapshot())
	oracleNextDraw(med, 5*DotsPerBlock+3, h)
}
