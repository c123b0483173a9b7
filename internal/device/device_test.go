package device

import (
	"bytes"
	"errors"
	"testing"

	"sero/internal/manchester"
	"sero/internal/medium"
)

// testDevice builds a small quiet device (no read noise) for
// deterministic tests; noisy behaviour is exercised separately.
func testDevice(t testing.TB, blocks int) *Device {
	t.Helper()
	return New(QuietParams(blocks))
}

// noisyDevice keeps the default stochastic medium.
func noisyDevice(t testing.TB, blocks int, seed uint64) *Device {
	t.Helper()
	p := DefaultParams(blocks)
	mp := medium.DefaultParams(blocks, DotsPerBlock)
	mp.Seed = seed
	p.Medium = mp
	return New(p)
}

func pattern(seed byte) []byte {
	d := make([]byte, DataBytes)
	for i := range d {
		d[i] = seed + byte(i)
	}
	return d
}

func TestSectorOverheadMatchesPaper(t *testing.T) {
	// §3: "about 15% sector overhead for the sector header, error
	// correction, and cyclic redundancy check".
	overhead := float64(PhysicalBytes-DataBytes) / float64(DataBytes)
	if overhead < 0.14 || overhead > 0.17 {
		t.Fatalf("sector overhead %.3f, want ≈0.15", overhead)
	}
}

func TestMWSMRSRoundTrip(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 16; pba++ {
		want := pattern(byte(pba))
		if err := d.MWS(pba, want); err != nil {
			t.Fatal(err)
		}
		got, err := d.MRS(pba)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d round-trip mismatch", pba)
		}
	}
}

func TestMWSRejectsBadLength(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.MWS(0, make([]byte, 100)); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.MWS(4, pattern(0)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err %v", err)
	}
	if _, err := d.MRS(4); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err %v", err)
	}
}

func TestMRSUnderNoise(t *testing.T) {
	// The 20:1 SNR medium with RS+CRC must read back reliably.
	d := noisyDevice(t, 8, 3)
	for pba := uint64(0); pba < 8; pba++ {
		want := pattern(byte(pba * 17))
		if err := d.MWS(pba, want); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			got, err := d.MRS(pba)
			if err != nil {
				t.Fatalf("block %d round %d: %v", pba, round, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("block %d round %d mismatch", pba, round)
			}
		}
	}
}

func TestECCCorrectsStuckDots(t *testing.T) {
	d := testDevice(t, 4)
	want := pattern(9)
	if err := d.MWS(1, want); err != nil {
		t.Fatal(err)
	}
	// Pin 24 dots (3 bytes worth) inside block 1's frame — within the
	// interleaved RS capability of 8 byte errors per lane.
	base := 1 * DotsPerBlock
	for i := 0; i < 24; i++ {
		d.Medium().SetStuck(base+200*8+i, medium.StuckUp)
	}
	got, err := d.MRS(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("corrected read mismatch")
	}
	if d.Stats().CorrectedBytes == 0 {
		t.Fatal("no corrections recorded")
	}
}

func TestMRSUncorrectableOnMassiveDamage(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.MWS(1, pattern(1)); err != nil {
		t.Fatal(err)
	}
	base := 1 * DotsPerBlock
	for i := 0; i < DotsPerBlock/2; i++ {
		d.Medium().SetStuck(base+i*2, medium.StuckDead)
	}
	_, err := d.MRS(1)
	if err == nil {
		t.Fatal("massively damaged block read successfully")
	}
}

func TestMisplacedFrameDetected(t *testing.T) {
	// A frame written for PBA a and physically moved to PBA b must be
	// rejected: the header binds the address.
	f := Frame{PBA: 2, Flags: FlagData}
	copy(f.Data[:], pattern(7))
	img := f.Marshal()
	_, _, err := UnmarshalFrame(img, 3)
	if !errors.Is(err, ErrMisplaced) {
		t.Fatalf("err %v, want ErrMisplaced", err)
	}
}

func TestFrameChecksumDetectsSilentCorruption(t *testing.T) {
	f := Frame{PBA: 1}
	copy(f.Data[:], pattern(1))
	img := f.Marshal()
	// Corrupt more bytes than RS can notice by rebuilding parity over
	// tampered data is impossible here; instead simulate a decoder
	// miss by flipping data and recomputing nothing — RS will correct
	// it. So corrupt exactly at the RS limit boundary is not feasible
	// to force; instead validate the CRC path directly on a frame with
	// a corrupted payload and hand-patched parity.
	il := codec
	buf := append([]byte(nil), img[:HeaderBytes+DataBytes]...)
	buf[HeaderBytes] ^= 0xFF // flip payload byte
	img2 := il.Encode(buf)   // parity now consistent with corrupt data
	_, _, err := UnmarshalFrame(img2, 1)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err %v, want ErrChecksum", err)
	}
}

func TestHeatLineAndVerify(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(8); pba < 16; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	li, err := d.HeatLine(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if li.Blocks() != 8 || li.Start != 8 {
		t.Fatalf("line info %+v", li)
	}
	rep, err := d.VerifyLine(8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fresh heated line verifies tampered: %+v", rep)
	}
}

func TestHeatedLineMembersStillReadable(t *testing.T) {
	// §3: "Blocks 1..2^N−1 of a heated line can still be read
	// magnetically, hence efficiently, and as often as needed."
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 3); err != nil {
		t.Fatal(err)
	}
	for pba := uint64(1); pba < 8; pba++ {
		got, err := d.MRS(pba)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(byte(pba))) {
			t.Fatalf("member %d unreadable after heat", pba)
		}
	}
	// Block 0 is electrical now: magnetic read must be refused.
	if _, err := d.MRS(0); !errors.Is(err, ErrHeatedBlock) {
		t.Fatalf("block 0 magnetic read: %v", err)
	}
}

func TestHeatedLineMembersNotWritable(t *testing.T) {
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.MWS(1, pattern(9)); !errors.Is(err, ErrHeatedBlock) {
		t.Fatalf("write into heated line: %v", err)
	}
	// Blocks outside the line stay writable.
	if err := d.MWS(4, pattern(9)); err != nil {
		t.Fatal(err)
	}
}

func TestHeatLineAlignment(t *testing.T) {
	d := testDevice(t, 16)
	if _, err := d.HeatLine(2, 2); !errors.Is(err, ErrBadLine) {
		t.Fatalf("misaligned heat: %v", err)
	}
	if _, err := d.HeatLine(0, 0); !errors.Is(err, ErrBadLine) {
		t.Fatalf("logN=0 heat: %v", err)
	}
	if _, err := d.HeatLine(0, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow heat: %v", err)
	}
}

func TestHeatLineOverlapRejected(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 16; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HeatLine(0, 3); !errors.Is(err, ErrLineOverlap) {
		t.Fatalf("containing line accepted: %v", err)
	}
	if _, err := d.HeatLine(4, 2); err != nil {
		t.Fatalf("disjoint line rejected: %v", err)
	}
}

func TestReHeatIdempotent(t *testing.T) {
	// §3: re-heating an unchanged line "has no effect and is therefore
	// harmless".
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	li1, err := d.HeatLine(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	li2, err := d.HeatLine(0, 2)
	if err != nil {
		t.Fatalf("idempotent re-heat failed: %v", err)
	}
	if li1.Record.Hash != li2.Record.Hash {
		t.Fatal("re-heat changed the hash")
	}
	rep, err := d.VerifyLine(0)
	if err != nil || !rep.OK {
		t.Fatalf("line damaged by re-heat: %+v %v", rep, err)
	}
}

func TestVerifyDetectsDataTamper(t *testing.T) {
	// §5.1 "mwb inode/data": flipping a magnetic bit of heated data is
	// caught by verify.
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 3); err != nil {
		t.Fatal(err)
	}
	// A single flipped dot is absorbed by the sector ECC — that is
	// correct behaviour, not a tamper-evidence hole (the decoded data,
	// and hence the hash, is unchanged).
	d.Medium().CorruptMagnetic(3*DotsPerBlock + headerDotOffset() + 100)
	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("ECC-corrected flip misreported as tamper: %+v", rep)
	}

	// The real attack: forge a completely valid frame with different
	// data for block 3 and write it raw (root attacker, §5 threat
	// model). The frame is self-consistent, so only the heated hash
	// can expose it.
	evil := pattern(0xEE)
	if err := d.ForgeBlock(3, evil); err != nil {
		t.Fatal(err)
	}
	// The forged block reads back fine on its own...
	got, err := d.MRS(3)
	if err != nil || !bytes.Equal(got, evil) {
		t.Fatalf("forged frame unreadable: %v", err)
	}
	// ...but verify detects the history rewrite.
	rep, err = d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || !rep.HashMismatch {
		t.Fatalf("forged frame not detected: %+v", rep)
	}
}

// TestForgeBlock pins the raw forge: a forged frame reads back as the
// forged payload without charging virtual time, counting stats or
// notifying observers; inside a heated line only the hash exposes it;
// an address outside the device is refused and leaves the medium as
// it was.
func TestForgeBlock(t *testing.T) {
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	observed := 0
	d.SetWriteObserver(func(uint64, []byte) { observed++ })
	now, stats := d.Clock().Now(), d.Stats()

	evil := pattern(0xEE)
	if err := d.ForgeBlock(5, evil); err != nil {
		t.Fatal(err)
	}
	if d.Clock().Now() != now || d.Stats() != stats || observed != 0 {
		t.Fatalf("forge charged the device: clock %v→%v, stats %+v→%+v, %d observed writes",
			now, d.Clock().Now(), stats, d.Stats(), observed)
	}
	if got, err := d.MRS(5); err != nil || !bytes.Equal(got, evil) {
		t.Fatalf("forged block reads %v, %v", got, err)
	}

	if err := d.ForgeBlock(2, evil); err != nil {
		t.Fatal(err)
	}
	if rep, err := d.VerifyLine(0); err != nil || rep.OK || !rep.HashMismatch {
		t.Fatalf("forged heated block: %+v, %v", rep, err)
	}

	before := d.Medium().Snapshot()
	if err := d.ForgeBlock(8, evil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range forge: %v", err)
	}
	if !bytes.Equal(d.Medium().Snapshot(), before) {
		t.Fatal("refused forge changed the medium")
	}
}

func TestLineExponent(t *testing.T) {
	cases := map[int]uint8{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := LineExponent(n); got != want {
			t.Errorf("LineExponent(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestVerifyDetectsHashTamper(t *testing.T) {
	// §5.1 "ewb hash": heating more hash dots produces HH cells.
	d := testDevice(t, 4)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	// Attacker heats the partner dot of the first hash cell.
	base := 0*DotsPerBlock + headerDotOffset()
	d.Medium().EWB(base)
	d.Medium().EWB(base + 1)

	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || !rep.RecordDamaged || rep.TamperedCells == 0 {
		t.Fatalf("hash tamper not detected: %+v", rep)
	}
}

func TestVerifyDetectsMWBOnHashHarmless(t *testing.T) {
	// §5.1 "mwb hash": magnetising heated hash dots has no effect.
	d := testDevice(t, 4)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	base := 0*DotsPerBlock + headerDotOffset()
	for i := 0; i < manchester.EncodedDots(HeatRecordBytes); i++ {
		d.Medium().MWB(base+i, true)
	}
	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("harmless mwb flagged as tampering: %+v", rep)
	}
}

func TestVerifyDetectsEWBOnData(t *testing.T) {
	// §5.1 "ewb inode/data": heating data dots appears as a read
	// error.
	d := testDevice(t, 4)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	// Heat a large portion of block 2's frame.
	base := 2 * DotsPerBlock
	for i := 0; i < DotsPerBlock; i += 2 {
		d.Medium().EWB(base + i)
	}
	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || len(rep.ReadErrors) == 0 {
		t.Fatalf("ewb-on-data not detected: %+v", rep)
	}
}

func TestVerifyUnknownLine(t *testing.T) {
	d := testDevice(t, 4)
	if _, err := d.VerifyLine(0); !errors.Is(err, ErrNotHeated) {
		t.Fatalf("err %v", err)
	}
}

func TestEWSERSRoundTrip(t *testing.T) {
	d := testDevice(t, 4)
	payload := []byte("write-once evidence payload")
	if err := d.EWS(2, payload); err != nil {
		t.Fatal(err)
	}
	rep, err := d.ERS(2, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || !bytes.Equal(rep.Payload, payload) {
		t.Fatalf("ERS report %+v", rep)
	}
}

func TestEWSOversizePayload(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.EWS(0, make([]byte, 257)); err == nil {
		t.Fatal("oversize electrical payload accepted")
	}
	if err := d.EWS(0, nil); err == nil {
		t.Fatal("empty electrical payload accepted")
	}
}

func TestScanRecoversLines(t *testing.T) {
	// §5.2: "a fsck style scan of the medium would definitely recover
	// (albeit slowly) all the heated files".
	d := testDevice(t, 32)
	for pba := uint64(0); pba < 32; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	want1, err := d.HeatLine(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := d.HeatLine(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	recovered, unparseable, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(unparseable) != 0 {
		t.Fatalf("unparseable blocks %v", unparseable)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d lines", len(recovered))
	}
	if recovered[0].Record.Hash != want1.Record.Hash ||
		recovered[1].Record.Hash != want2.Record.Hash {
		t.Fatal("recovered hashes differ")
	}
	// Verification still works after recovery.
	rep, err := d.VerifyLine(16)
	if err != nil || !rep.OK {
		t.Fatalf("verify after scan: %+v %v", rep, err)
	}
}

func TestScanSurvivesBulkErase(t *testing.T) {
	// §5.2: after a bulk erase all electrically written information is
	// still present.
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 16; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(8, 3); err != nil {
		t.Fatal(err)
	}
	d.Medium().BulkErase()
	recovered, _, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Start != 8 {
		t.Fatalf("recovered %+v", recovered)
	}
	// And verify now reports tampering (the data is gone).
	rep, err := d.VerifyLine(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("bulk erase not detected by verify")
	}
}

func TestBadBlockVsHeatedBlock(t *testing.T) {
	// §3: "a heated block should not be misinterpreted as a bad
	// block".
	d := testDevice(t, 8)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	// Attempting to mark heated block 0 bad must be refused.
	if err := d.MarkBad(0); !errors.Is(err, ErrHeatedBlock) {
		t.Fatalf("MarkBad on heated block: %v", err)
	}
	// A genuinely dead block can be marked bad.
	base := 5 * DotsPerBlock
	for i := 0; i < DotsPerBlock; i++ {
		d.Medium().SetStuck(base+i, medium.StuckDead)
	}
	if err := d.MarkBad(5); err != nil {
		t.Fatal(err)
	}
	if !d.IsBad(5) {
		t.Fatal("block 5 not bad")
	}
	if err := d.MWS(5, pattern(0)); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("write to bad block: %v", err)
	}
}

func TestMarkBadDetectsHiddenElectricalData(t *testing.T) {
	// A block heated behind the device's back (raw attack) must be
	// discovered by the probe, not marked bad.
	d := testDevice(t, 8)
	if err := d.EWS(3, []byte("evidence")); err != nil {
		t.Fatal(err)
	}
	// Wipe the cache to simulate lost host state.
	d.heated = make(map[uint64]bool)
	if err := d.MarkBad(3); !errors.Is(err, ErrHeatedBlock) {
		t.Fatalf("MarkBad missed electrical data: %v", err)
	}
}

func TestProbeHeatedNegative(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.MWS(1, pattern(1)); err != nil {
		t.Fatal(err)
	}
	hot, err := d.ProbeHeated(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hot {
		t.Fatal("magnetic block probed as heated")
	}
}

func TestLinesSorted(t *testing.T) {
	d := testDevice(t, 32)
	for pba := uint64(0); pba < 32; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(16, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	lines := d.Lines()
	if len(lines) != 2 || lines[0].Start != 0 || lines[1].Start != 16 {
		t.Fatalf("lines %+v", lines)
	}
}

func TestHeatRecordRoundTrip(t *testing.T) {
	r := HeatRecord{LogN: 5, Start: 96, HeatedAt: 12345}
	for i := range r.Hash {
		r.Hash[i] = byte(i)
	}
	got, err := UnmarshalHeatRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip %+v != %+v", got, r)
	}
}

func TestHeatRecordRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalHeatRecord(make([]byte, 10)); err == nil {
		t.Fatal("short record accepted")
	}
	buf := make([]byte, HeatRecordBytes)
	if _, err := UnmarshalHeatRecord(buf); err == nil {
		t.Fatal("zero record accepted")
	}
	r := HeatRecord{LogN: 2}
	b := r.Marshal()
	b[4] = 99 // bad version
	if _, err := UnmarshalHeatRecord(b); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestOpLatencyContract(t *testing.T) {
	// E1: erb ≥ 5× mrb at sector level; ews ≫ mws per written bit.
	d := testDevice(t, 8)
	if err := d.MWS(1, pattern(1)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	writeNS := st.MagneticWriteNS

	before := d.Clock().Now()
	if _, err := d.MRS(1); err != nil {
		t.Fatal(err)
	}
	readNS := d.Clock().Now() - before

	if err := d.EWS(2, pattern(2)[:HeatRecordBytes]); err != nil {
		t.Fatal(err)
	}
	before = d.Clock().Now()
	if _, err := d.ERS(2, HeatRecordBytes); err != nil {
		t.Fatal(err)
	}
	ersNS := d.Clock().Now() - before

	// ers covers 1024 dots with retries vs mrs 4736 dots: normalise
	// per dot.
	ersPerDot := float64(ersNS) / float64(manchester.EncodedDots(HeatRecordBytes))
	mrsPerDot := float64(readNS) / float64(DotsPerBlock)
	if ersPerDot < 5*mrsPerDot {
		t.Fatalf("ers %.1f ns/dot not ≥ 5× mrs %.1f ns/dot", ersPerDot, mrsPerDot)
	}
	if writeNS == 0 || readNS == 0 {
		t.Fatal("zero virtual latency recorded")
	}
}

func TestStatsCountsWrite(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.MWS(0, pattern(0)); err != nil {
		t.Fatal(err)
	}
	if d.Stats().MagneticWrites != 1 {
		t.Fatal("write not counted")
	}
}

func TestIsHeatedCached(t *testing.T) {
	d := testDevice(t, 4)
	if d.IsHeatedCached(1) {
		t.Fatal("fresh block cached as heated")
	}
	if err := d.EWS(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !d.IsHeatedCached(1) {
		t.Fatal("EWS did not cache heat state")
	}
	if got := d.HeatedBlocks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("heated blocks %v", got)
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Params{Blocks: 0})
}
