package device

import (
	"bytes"
	"testing"

	"sero/internal/medium"
)

// womDevice builds a quiet device using the WOM record coding.
func womDevice(t testing.TB, blocks int) *Device {
	t.Helper()
	p := QuietParams(blocks)
	p.Coding = CodingWOM
	return New(p)
}

func TestCodingStrings(t *testing.T) {
	if CodingManchester.String() != "manchester" || CodingWOM.String() != "wom" {
		t.Fatal("coding names")
	}
}

func TestWOMEWSERSRoundTrip(t *testing.T) {
	d := womDevice(t, 4)
	payload := []byte("write-once, rivest-shamir coded")
	if err := d.EWS(1, payload); err != nil {
		t.Fatal(err)
	}
	rep, err := d.ERS(1, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || !bytes.Equal(rep.Payload, payload) {
		t.Fatalf("WOM round trip: %+v", rep)
	}
}

func TestWOMUsesFewerDots(t *testing.T) {
	dm := testDevice(t, 4)
	dw := womDevice(t, 4)
	payload := make([]byte, HeatRecordBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := dm.EWS(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := dw.EWS(0, payload); err != nil {
		t.Fatal(err)
	}
	hm := dm.Medium().HeatedCount()
	hw := dw.Medium().HeatedCount()
	if hw >= hm {
		t.Fatalf("WOM heated %d dots, Manchester %d — no saving", hw, hm)
	}
	// Footprint: Manchester 16 dots/byte vs WOM 12.
	if got := dw.codingDots(HeatRecordBytes); got != HeatRecordBytes*12 {
		t.Fatalf("WOM footprint %d", got)
	}
}

func TestWOMHeatLineAndVerify(t *testing.T) {
	d := womDevice(t, 8)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := d.VerifyLine(0)
	if err != nil || !rep.OK {
		t.Fatalf("WOM line verify: %+v %v", rep, err)
	}
}

func TestWOMTamperDetectedByHashNotCells(t *testing.T) {
	// The §8 trade-off: heating extra dots of a WOM record never
	// produces an invalid cell, but the record parse/hash still
	// catches the tamper.
	d := womDevice(t, 4)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	// Heat a burst of record dots (this corrupts decoded values but
	// every pattern remains a valid codeword).
	base := 0*DotsPerBlock + headerDotOffset()
	for i := 24; i < 48; i++ {
		d.Medium().EWB(base + i)
	}
	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("WOM record tamper not detected at all")
	}
	if rep.TamperedCells != 0 {
		t.Fatalf("WOM coding reported %d HH cells — it has no invalid cells", rep.TamperedCells)
	}
	if !rep.RecordDamaged && !rep.HashMismatch {
		t.Fatalf("detection path: %+v", rep)
	}
}

func TestWOMDataTamperDetected(t *testing.T) {
	d := womDevice(t, 4)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.ForgeBlock(2, pattern(0xCC)); err != nil {
		t.Fatal(err)
	}
	rep, err := d.VerifyLine(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || !rep.HashMismatch {
		t.Fatalf("forged data on WOM device: %+v", rep)
	}
}

func TestWOMScanRecovers(t *testing.T) {
	d := womDevice(t, 16)
	for pba := uint64(0); pba < 16; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := d.HeatLine(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	recovered, unparseable, err := d.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(unparseable) != 0 || len(recovered) != 1 {
		t.Fatalf("scan: %v / %v", recovered, unparseable)
	}
	if recovered[0].Record.Hash != want.Record.Hash {
		t.Fatal("hash lost in WOM scan")
	}
}

func TestWOMNoisyRoundTrip(t *testing.T) {
	p := DefaultParams(8)
	p.Coding = CodingWOM
	mp := medium.DefaultParams(8, DotsPerBlock)
	mp.Seed = 5
	p.Medium = mp
	d := New(p)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.HeatLine(0, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := d.VerifyLine(0)
	if err != nil || !rep.OK {
		t.Fatalf("noisy WOM verify: %+v %v", rep, err)
	}
}
