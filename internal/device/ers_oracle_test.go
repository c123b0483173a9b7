package device

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"testing"
	"time"

	"sero/internal/medium"
)

// ersOracleHash pins the observable behaviour of the electrical read
// path under one fixed scenario per sled: heated lines, stuck Up, Down
// and Dead dots inside a heat record, an HH-tampered re-heat, a forged
// member block, the MRS of the crosstalk neighbours on both sides of a
// heated record, shredding, and a full Scan, on a noiseless sled like
// perfbench's, a default-noise sled whose healthy reads may skip their
// draws, and a sled noisy enough that none may, the last two also with
// a weak pulse that damages dots only partially. The digest covers
// every ERS, VerifyLine, VerifyLineOffClock, ProbeHeated, Scan and
// IsShredded result, the virtual clock and device counters, the
// snapshot bytes and the next noise draw, so any change to a verdict,
// the stored state, the charged time or the position of the noise
// stream moves it.
const ersOracleHash = "555bf432765fc38b97f90110cb348e4999b7c8873dfeee29eb2982df0fc42152"

func TestERSOracle(t *testing.T) {
	h := sha256.New()
	for _, c := range []struct {
		sigma, pulse float64
		seed         uint64
	}{
		{0, 900, 3},
		{0.05, 900, 7},
		{0.05, 700, 8},
		{0.12, 900, 13},
		{0.12, 700, 14},
	} {
		fmt.Fprintf(h, "sled sigma=%v pulse=%v seed=%d\n", c.sigma, c.pulse, c.seed)
		ersOracleSled(t, h, c.sigma, c.pulse, c.seed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ersOracleHash {
		t.Fatalf("ERS oracle hash %s, want %s", got, ersOracleHash)
	}
}

func ersOracleSled(t *testing.T, h hash.Hash, sigma, pulse float64, seed uint64) {
	const blocks = 32
	mp := medium.DefaultParams(blocks, DotsPerBlock)
	mp.Seed = seed
	mp.ReadNoiseSigma = sigma
	mp.PulseTempC = pulse
	if sigma == 0 {
		// perfbench's medium: no noise, no residual signal, no
		// crosstalk flips.
		mp.ResidualInPlaneSignal, mp.ThermalCrosstalk = 0, 0
	}
	d := oracleDevice(blocks, mp)
	med := d.Medium()
	if err := d.WriteBlocksTraced(nil, 0, oraclePayloads(blocks, byte(seed))); err != nil {
		t.Fatal(err)
	}
	record := func(pba int) int { return pba*DotsPerBlock + headerDotOffset() }

	// A weak pulse damages the record's dots only partially, so its
	// heat fails read-back until repeated pulses destroy them; each
	// failed attempt's record is read electrically.
	for _, start := range []uint64{0, 4, 8, 12, 16} {
		for attempt := 0; attempt < 6; attempt++ {
			li, err := d.HeatLine(start, 2)
			fmt.Fprintf(h, "heat %d/%d %x %v\n", start, attempt, li.Record.Hash, err)
			if err == nil {
				break
			}
			rep, err := d.ERS(start, HeatRecordBytes)
			fmt.Fprintf(h, "partial ers %d/%d %+v %v\n", start, attempt, rep, err)
		}
	}

	// Stuck dots inside the record of line 8.
	med.SetStuck(record(8)+10, medium.StuckUp)
	med.SetStuck(record(8)+11, medium.StuckUp)
	med.SetStuck(record(8)+300, medium.StuckDown)
	med.SetStuck(record(8)+301, medium.StuckDown)
	med.SetStuck(record(8)+700, medium.StuckDead)
	med.SetStuck(record(8)+701, medium.StuckDead)

	// A forged member of line 12, then a re-heat with the new content:
	// the record's cells turn HH.
	forged := Frame{PBA: 13, Flags: FlagData}
	copy(forged.Data[:], pattern(200))
	d.TamperRaw(13, 14, func(m *medium.Medium) { m.MWBImage(13*DotsPerBlock, forged.Marshal()) })
	li, err := d.HeatLine(12, 2)
	fmt.Fprintf(h, "reheat %x %v\n", li.Record.Hash, err)

	// A forged member of line 16 without a re-heat: a hash mismatch.
	forged.PBA = 17
	d.TamperRaw(17, 18, func(m *medium.Medium) { m.MWBImage(17*DotsPerBlock, forged.Marshal()) })

	for pba := uint64(0); pba < 20; pba += 4 {
		rep, err := d.ERS(pba, HeatRecordBytes)
		fmt.Fprintf(h, "ers %d %+v %v\n", pba, rep, err)
		vr, err := d.VerifyLine(pba)
		fmt.Fprintf(h, "verify %d %+v %v\n", pba, vr, err)
		vr, shadow, err := d.VerifyLineOffClock(pba)
		fmt.Fprintf(h, "verify-off %d %+v %v %v\n", pba, vr, shadow, err)
	}
	// The crosstalk neighbours on both sides of line 4's record.
	for _, pba := range []uint64{3, 5} {
		buf, err := d.MRS(pba)
		fmt.Fprintf(h, "neighbour %d %x %v\n", pba, buf, err)
	}
	for _, pba := range []uint64{0, 1, 3, 8, 12, 20} {
		for _, cells := range []int{0, 8, 16, 32, 64, 512} {
			hot, err := d.ProbeHeated(pba, cells)
			fmt.Fprintf(h, "probe %d %d %v %v\n", pba, cells, hot, err)
		}
	}

	sr, err := d.ShredLine(4)
	fmt.Fprintf(h, "shred %+v %v\n", sr, err)
	for _, start := range []uint64{4, 8} {
		ok, err := d.IsShredded(start)
		fmt.Fprintf(h, "shredded %d %v %v\n", start, ok, err)
	}

	d.SetConcurrency(1)
	lines, unparseable, err := d.Scan()
	fmt.Fprintf(h, "scan %+v %v %v\n", lines, unparseable, err)
	for pba := uint64(0); pba < 20; pba += 4 {
		vr, err := d.VerifyLine(pba)
		fmt.Fprintf(h, "rescan verify %d %+v %v\n", pba, vr, err)
	}

	fmt.Fprintf(h, "clock %v stats %+v\n", d.Clock().Now(), oracleStats(d.Stats()))
	h.Write(med.Snapshot())
	oracleNextDraw(med, 30*DotsPerBlock+5, h)
}

// behaviourStats is OpStats without its host-work counters
// (FrameChecksSkipped, FramesRebound): the operations and the virtual
// time they were charged. The oracle pins these alone, so a change in
// how much host work a read skips cannot move the digest, and a change
// in what the device does still does.
type behaviourStats struct {
	MagneticReads   uint64
	MagneticWrites  uint64
	ElectricReads   uint64
	ElectricWrites  uint64
	HeatLines       uint64
	VerifyLines     uint64
	CorrectedBytes  uint64
	MagneticReadNS  time.Duration
	MagneticWriteNS time.Duration
	ElectricReadNS  time.Duration
	ElectricWriteNS time.Duration
}

// oracleStats drops st's host-work counters.
func oracleStats(st OpStats) behaviourStats {
	return behaviourStats{
		MagneticReads: st.MagneticReads, MagneticWrites: st.MagneticWrites,
		ElectricReads: st.ElectricReads, ElectricWrites: st.ElectricWrites,
		HeatLines: st.HeatLines, VerifyLines: st.VerifyLines,
		CorrectedBytes: st.CorrectedBytes,
		MagneticReadNS: st.MagneticReadNS, MagneticWriteNS: st.MagneticWriteNS,
		ElectricReadNS: st.ElectricReadNS, ElectricWriteNS: st.ElectricWriteNS,
	}
}

// hostWorkStats names the OpStats fields oracleStats leaves out.
var hostWorkStats = map[string]bool{"FrameChecksSkipped": true, "FramesRebound": true}

// TestOracleStatsCoverOpStats keeps behaviourStats and oracleStats in
// step with OpStats: every field but the host-work counters must appear
// in behaviourStats, in order, with its type, and oracleStats must copy
// its value. A behavioural field added to OpStats alone fails here
// instead of silently leaving TestERSOracle's digest.
func TestOracleStatsCoverOpStats(t *testing.T) {
	var st OpStats
	sv := reflect.ValueOf(&st).Elem()
	bt := reflect.TypeOf(behaviourStats{})
	var kept []reflect.StructField
	for i := range sv.NumField() {
		f := sv.Type().Field(i)
		if hostWorkStats[f.Name] {
			continue
		}
		kept = append(kept, f)
		switch fv := sv.Field(i); fv.Kind() {
		case reflect.Uint64:
			fv.SetUint(uint64(i + 1))
		case reflect.Int64: // time.Duration
			fv.SetInt(int64(i + 1))
		default:
			t.Fatalf("OpStats.%s has kind %v", f.Name, fv.Kind())
		}
	}
	if len(kept) != bt.NumField() {
		t.Fatalf("OpStats has %d behavioural fields, behaviourStats %d", len(kept), bt.NumField())
	}
	bv := reflect.ValueOf(oracleStats(st))
	for i, f := range kept {
		if g := bt.Field(i); g.Name != f.Name || g.Type != f.Type {
			t.Fatalf("behaviourStats field %d is %s %v, want %s %v", i, g.Name, g.Type, f.Name, f.Type)
		}
		if got, want := bv.Field(i).Interface(), sv.FieldByName(f.Name).Interface(); got != want {
			t.Fatalf("oracleStats copies %s as %v, want %v", f.Name, got, want)
		}
	}
}
