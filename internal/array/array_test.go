package array

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"sero/internal/device"
	"sero/internal/trace"
)

// payload returns a deterministic 512-byte block derived from seed.
func payload(seed uint64) []byte {
	b := make([]byte, device.DataBytes)
	for i := range b {
		b[i] = byte(seed*131 + uint64(i)*7 + 3)
	}
	return b
}

func mustBuild(t *testing.T, n, parity, su, memberBlocks int) *Array {
	t.Helper()
	a, err := Build(n, device.QuietParams(memberBlocks), Params{StripeBlocks: su, Parity: parity})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGeometryRoundTrip checks the striping map is a bijection between
// the global space and the data territory of the members.
func TestGeometryRoundTrip(t *testing.T) {
	for _, g := range []struct{ n, p int }{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {5, 3}} {
		a := mustBuild(t, g.n, g.p, 8, 64)
		wantBlocks := (64 / 8) * (g.n - g.p) * 8
		if a.Blocks() != wantBlocks {
			t.Fatalf("n=%d p=%d: capacity %d, want %d", g.n, g.p, a.Blocks(), wantBlocks)
		}
		seen := make(map[[2]uint64]bool)
		for gpba := uint64(0); gpba < uint64(a.Blocks()); gpba++ {
			m, lpba, row, _ := a.locate(gpba)
			if _, isP := a.parityMember(row, m); isP {
				t.Fatalf("n=%d p=%d: block %d landed on parity member %d row %d", g.n, g.p, gpba, m, row)
			}
			back, ok := a.globalOf(m, lpba)
			if !ok || back != gpba {
				t.Fatalf("n=%d p=%d: block %d → (%d,%d) → %d ok=%v", g.n, g.p, gpba, m, lpba, back, ok)
			}
			key := [2]uint64{uint64(m), lpba}
			if seen[key] {
				t.Fatalf("n=%d p=%d: (%d,%d) mapped twice", g.n, g.p, m, lpba)
			}
			seen[key] = true
		}
		// Every row dedicates exactly p members to parity.
		for row := 0; row < a.rows; row++ {
			cnt := 0
			for m := 0; m < a.n; m++ {
				if _, isP := a.parityMember(row, m); isP {
					cnt++
				}
			}
			if cnt != g.p {
				t.Fatalf("n=%d p=%d row %d: %d parity members", g.n, g.p, row, cnt)
			}
		}
	}
}

// driveScript runs one mixed op sequence against any Dev.
func driveScript(t *testing.T, d device.Dev) {
	t.Helper()
	mk := func(base, n uint64) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = payload(base + uint64(i))
		}
		return out
	}
	if err := d.WriteBlocksTraced(nil, 60, mk(1000, 10)); err != nil { // crosses the 64-block stripe unit
		t.Fatal(err)
	}
	errs := d.WriteRunsFannedTraced(nil, []device.WriteRun{
		{Start: 100, Blocks: mk(2000, 5)},
		{Start: 200, Blocks: mk(3000, 3)},
		{Start: 126, Blocks: mk(4000, 4)}, // crosses the boundary at 128
	}, 2)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, pba := range []uint64{60, 69, 102, 127} {
		if _, err := d.MRSTraced(nil, pba); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteLineBatch(256, 4, mk(5000, 15)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HeatLine(256, 4); err != nil {
		t.Fatal(err)
	}
	rep, err := d.VerifyLine(256)
	if err != nil || !rep.OK {
		t.Fatalf("verify: %+v err=%v", rep, err)
	}
	if _, errs := d.ReadBlocksFanned([]uint64{60, 65, 102, 201, 126}, 2); errs != nil {
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	res := d.MoveGroups([][]device.BlockMove{{{Src: 60, Dst: 300}, {Src: 61, Dst: 301}}}, 2)
	if res[0].Err != nil || res[0].Completed != 2 {
		t.Fatalf("moves: %+v", res[0])
	}
}

// TestWidth1Identity: a one-member array is byte-identical — medium
// layout AND virtual time — to a raw device driven with the same ops.
// This is the fourth system-wide contract.
func TestWidth1Identity(t *testing.T) {
	raw := device.New(device.QuietParams(1024))
	arr := mustBuild(t, 1, 0, 64, 1024)

	driveScript(t, raw)
	driveScript(t, arr)

	if rc, ac := raw.Clock().Now(), arr.Clock().Now(); rc != ac {
		t.Fatalf("virtual time diverged: raw %v array %v", rc, ac)
	}
	if !bytes.Equal(raw.SaveImage(), arr.MemberDevice(0).SaveImage()) {
		t.Fatal("medium images diverged at width 1")
	}
	rl, al := raw.Lines(), arr.Lines()
	if len(rl) != len(al) || len(rl) != 1 || rl[0] != al[0] {
		t.Fatalf("lines diverged: raw %+v array %+v", rl, al)
	}
}

// fillArray writes payload(g) to every global block via runs of run
// blocks, returning the written set.
func fillArray(t *testing.T, a *Array, run int) {
	t.Helper()
	for g := 0; g < a.Blocks(); g += run {
		n := run
		if g+n > a.Blocks() {
			n = a.Blocks() - g
		}
		blocks := make([][]byte, n)
		for i := range blocks {
			blocks[i] = payload(uint64(g + i))
		}
		if err := a.WriteBlocksTraced(nil, uint64(g), blocks); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReconstructionAfterMemberLoss: every committed block remains
// readable with up to P members failed, via parity reconstruction.
func TestReconstructionAfterMemberLoss(t *testing.T) {
	for _, g := range []struct{ n, p int }{{3, 1}, {4, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("n%dp%d", g.n, g.p), func(t *testing.T) {
			a := mustBuild(t, g.n, g.p, 8, 64)
			fillArray(t, a, 11)
			for f := 0; f < g.p; f++ {
				if err := a.FailMember(f); err != nil {
					t.Fatal(err)
				}
			}
			for gpba := uint64(0); gpba < uint64(a.Blocks()); gpba++ {
				buf, err := a.MRSTraced(nil, gpba)
				if err != nil {
					t.Fatalf("block %d: %v", gpba, err)
				}
				if !bytes.Equal(buf, payload(gpba)) {
					t.Fatalf("block %d reconstructed wrong", gpba)
				}
			}
			pbas := make([]uint64, a.Blocks())
			for i := range pbas {
				pbas[i] = uint64(i)
			}
			bufs, errs := a.ReadBlocksFanned(pbas, 3)
			for i := range pbas {
				if errs[i] != nil || !bytes.Equal(bufs[i], payload(pbas[i])) {
					t.Fatalf("fanned read of %d wrong (err=%v)", pbas[i], errs[i])
				}
			}
			if st := a.ArrayStats(); st.DegradedReads == 0 {
				t.Fatal("expected degraded reads")
			}
			// One loss beyond parity is reported as uncovered.
			if err := a.FailMember(g.p); err == nil {
				t.Fatal("expected ErrTooManyFailures")
			}
		})
	}
}

// TestDegradedWritesSurviveRepair: writes during a member outage land
// in the parity shadow; RepairMember materialises them on the fresh
// sled — zero acked-write loss.
func TestDegradedWritesSurviveRepair(t *testing.T) {
	a := mustBuild(t, 3, 1, 8, 64)
	fillArray(t, a, 7)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	// Overwrite everything with a shifted pattern while degraded.
	for g := 0; g < a.Blocks(); g++ {
		if err := a.WriteBlocksTraced(nil, uint64(g), [][]byte{payload(uint64(g) + 9000)}); err != nil {
			t.Fatal(err)
		}
	}
	for g := uint64(0); g < uint64(a.Blocks()); g++ {
		buf, err := a.MRSTraced(nil, g)
		if err != nil || !bytes.Equal(buf, payload(g+9000)) {
			t.Fatalf("degraded read of %d wrong (err=%v)", g, err)
		}
	}
	if err := a.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	if a.Failed(1) {
		t.Fatal("member still failed after repair")
	}
	// The fresh sled itself must hold the data — read it directly.
	for g := uint64(0); g < uint64(a.Blocks()); g++ {
		m, lpba, _, _ := a.locate(g)
		if m != 1 {
			continue
		}
		buf, err := a.MemberDevice(1).MRS(lpba)
		if err != nil || !bytes.Equal(buf, payload(g+9000)) {
			t.Fatalf("rebuilt member block %d (global %d) wrong (err=%v)", lpba, g, err)
		}
	}
	if st := a.ArrayStats(); st.RepairedMembers != 1 {
		t.Fatalf("RepairedMembers = %d", st.RepairedMembers)
	}
}

// lineOnMember finds a stripe-aligned global line start that lands on
// the given member.
func lineOnMember(t *testing.T, a *Array, member int, logN uint8) uint64 {
	t.Helper()
	n := uint64(1) << logN
	for g := uint64(0); g+n <= uint64(a.Blocks()); g += n {
		if m, _, _, _ := a.locate(g); m == member {
			return g
		}
	}
	t.Fatalf("no aligned line lands on member %d", member)
	return 0
}

// TestHeatedLineSurvivesMemberRepair: a heated line on a lost member
// is re-established on the fresh sled with the same hash (the hash
// binds addresses and data, both reconstructed exactly).
func TestHeatedLineSurvivesMemberRepair(t *testing.T) {
	a := mustBuild(t, 3, 1, 16, 128)
	g0 := lineOnMember(t, a, 1, 3)
	blocks := make([][]byte, 7)
	for i := range blocks {
		blocks[i] = payload(700 + uint64(i))
	}
	if err := a.WriteLineBatch(g0, 3, blocks); err != nil {
		t.Fatal(err)
	}
	li, err := a.HeatLine(g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.VerifyLine(g0); err == nil {
		t.Fatal("verify should fail while the member is down")
	}
	if err := a.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	rep, err := a.VerifyLine(g0)
	if err != nil || !rep.OK {
		t.Fatalf("verify after repair: %+v err=%v", rep, err)
	}
	if rep.Line.Record.Hash != li.Record.Hash {
		t.Fatal("repaired line hash differs from the original")
	}
	if rep.Line.Start != g0 {
		t.Fatalf("line start %d, want %d", rep.Line.Start, g0)
	}
}

// TestRepairLineAfterTamper: the auditor's repair arm — a forged frame
// in a heated line on a live member is detected by verify and healed
// by RepairLine from parity, restoring data and hash.
func TestRepairLineAfterTamper(t *testing.T) {
	a := mustBuild(t, 3, 1, 16, 128)
	g0 := lineOnMember(t, a, 1, 3)
	blocks := make([][]byte, 7)
	for i := range blocks {
		blocks[i] = payload(800 + uint64(i))
	}
	if err := a.WriteLineBatch(g0, 3, blocks); err != nil {
		t.Fatal(err)
	}
	li, err := a.HeatLine(g0, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Forge a valid-looking frame into the line's second data block,
	// raw on the member medium (no observer — the adversary does not
	// announce writes).
	_, lpba, _, _ := a.locate(g0)
	victim := lpba + 2
	if err := a.MemberDevice(1).ForgeBlock(victim, payload(31337)); err != nil {
		t.Fatal(err)
	}

	rep, err := a.VerifyLine(g0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("tamper not detected")
	}
	li2, err := a.RepairLine(g0)
	if err != nil {
		t.Fatal(err)
	}
	if li2.Record.Hash != li.Record.Hash {
		t.Fatal("repaired hash differs from the original")
	}
	rep, err = a.VerifyLine(g0)
	if err != nil || !rep.OK {
		t.Fatalf("verify after line repair: %+v err=%v", rep, err)
	}
	buf, err := a.MRSTraced(nil, g0+2)
	if err != nil || !bytes.Equal(buf, payload(801)) {
		t.Fatalf("healed block wrong (err=%v)", err)
	}
	if st := a.ArrayStats(); st.RepairedLines != 1 {
		t.Fatalf("RepairedLines = %d", st.RepairedLines)
	}
}

// TestShredScrubsParity: a shredded line must not be reconstructable
// from the surviving members — the parity shadow is scrubbed to zeros.
func TestShredScrubsParity(t *testing.T) {
	a := mustBuild(t, 3, 1, 16, 128)
	g0 := lineOnMember(t, a, 1, 3)
	blocks := make([][]byte, 7)
	for i := range blocks {
		blocks[i] = payload(900 + uint64(i))
	}
	if err := a.WriteLineBatch(g0, 3, blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := a.HeatLine(g0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ShredLine(g0); err != nil {
		t.Fatal(err)
	}
	// Reconstruction of the shredded blocks yields zeros, not the
	// expired payloads.
	zero := make([]byte, device.DataBytes)
	for i := uint64(1); i < 8; i++ {
		buf, err := a.reconstructBlock(1, func() uint64 { _, l, _, _ := a.locate(g0 + i); return l }())
		if err != nil {
			t.Fatalf("reconstruct %d: %v", i, err)
		}
		if !bytes.Equal(buf, zero) {
			t.Fatalf("shredded block %d still reconstructable", i)
		}
	}
}

// TestClockIsSlowestMember: the array clock tracks the furthest member
// timeline, so ops on distinct members overlap in virtual time.
func TestClockIsSlowestMember(t *testing.T) {
	a := mustBuild(t, 2, 0, 8, 64)
	if err := a.WriteBlocksTraced(nil, 0, [][]byte{payload(1), payload(2)}); err != nil { // member 0
		t.Fatal(err)
	}
	t0 := a.MemberDevice(0).Clock().Now()
	if a.Clock().Now() != t0 {
		t.Fatalf("array clock %v, member 0 at %v", a.Clock().Now(), t0)
	}
	if err := a.WriteBlocksTraced(nil, 8, [][]byte{payload(3)}); err != nil { // member 1
		t.Fatal(err)
	}
	t1 := a.MemberDevice(1).Clock().Now()
	want := t0
	if t1 > want {
		want = t1
	}
	if a.Clock().Now() != want {
		t.Fatalf("array clock %v, want max(%v,%v)", a.Clock().Now(), t0, t1)
	}
}

// TestSaveImageContainer: the forensic image is a parseable container
// of the member images.
func TestSaveImageContainer(t *testing.T) {
	a := mustBuild(t, 3, 1, 8, 64)
	fillArray(t, a, 5)
	img := a.SaveImage()
	if string(img[:4]) != "SARR" {
		t.Fatal("bad magic")
	}
	u32 := func(off int) int {
		return int(img[off]) | int(img[off+1])<<8 | int(img[off+2])<<16 | int(img[off+3])<<24
	}
	if u32(4) != 3 || u32(8) != 1 || u32(12) != 8 {
		t.Fatalf("header n=%d p=%d su=%d", u32(4), u32(8), u32(12))
	}
	off := 16 + 3*4
	for m := 0; m < 3; m++ {
		l := u32(16 + m*4)
		want := a.MemberDevice(m).SaveImage()
		if !bytes.Equal(img[off:off+l], want) {
			t.Fatalf("member %d image mismatch", m)
		}
		off += l
	}
	if off != len(img) {
		t.Fatalf("trailing %d bytes", len(img)-off)
	}
}

// TestRefusedParityFlushIsAnError marks row 0's parity block bad on
// its member, so every write that dirties row-0 parity has its flush
// refused. Each write entry point must report that refusal as an
// error on the data it covers instead of acknowledging it.
func TestRefusedParityFlushIsAnError(t *testing.T) {
	build := func() *Array {
		a := mustBuild(t, 3, 1, 8, 64)
		for m := 0; m < a.Members(); m++ {
			if _, isP := a.parityMember(0, m); isP {
				if err := a.MemberDevice(m).MarkBad(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return a
	}
	// Global blocks 0..15 are row 0's data; 16.. are row 1's.
	a := build()
	if err := a.WriteBlocksTraced(nil, 0, [][]byte{payload(1)}); !errors.Is(err, device.ErrBadBlock) {
		t.Fatalf("WriteBlocksTraced: err %v, want the refused parity flush", err)
	}

	a = build()
	errs := a.WriteRunsFannedTraced(nil, []device.WriteRun{
		{Start: 0, Blocks: [][]byte{payload(2)}},
		{Start: 16, Blocks: [][]byte{payload(3)}},
		{Start: uint64(a.Blocks()), Blocks: [][]byte{payload(4)}},
	}, 2)
	for i := 0; i < 2; i++ {
		if !errors.Is(errs[i], device.ErrBadBlock) {
			t.Fatalf("WriteRunsFannedTraced run %d: err %v, want the refused parity flush", i, errs[i])
		}
	}
	if errs[2] == nil || errors.Is(errs[2], device.ErrBadBlock) {
		t.Fatalf("WriteRunsFannedTraced out-of-range run: err %v, want its own range error", errs[2])
	}

	a = build()
	if err := a.WriteBlocksTraced(nil, 16, [][]byte{payload(5)}); err != nil {
		t.Fatal(err)
	}
	res := a.MoveGroups([][]device.BlockMove{{{Src: 16, Dst: 0}}}, 1)
	if !errors.Is(res[0].Err, device.ErrBadBlock) || res[0].Completed != 0 {
		t.Fatalf("MoveGroups: %+v, want the refused parity flush and no completed move", res[0])
	}
}

// TestFailedMemberLines pins what the array knows about the heated
// lines of a failed member: the line stays listed and recovered (its
// record unreadable until repair), every line operation on it is
// refused, and RepairMember re-heats it from what the array knew.
func TestFailedMemberLines(t *testing.T) {
	a := mustBuild(t, 3, 1, 16, 128)
	g0 := lineOnMember(t, a, 1, 3)
	blocks := make([][]byte, 7)
	for i := range blocks {
		blocks[i] = payload(900 + uint64(i))
	}
	if err := a.WriteLineBatch(g0, 3, blocks); err != nil {
		t.Fatal(err)
	}
	li, err := a.HeatLine(g0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	want := []device.LineInfo{{Start: g0, LogN: 3}}
	if got := a.Lines(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Lines() with the member down = %+v, want %+v", got, want)
	}
	if _, err := a.VerifyLine(g0); !errors.Is(err, ErrMemberFailed) {
		t.Fatalf("VerifyLine on the failed member: %v, want ErrMemberFailed", err)
	}
	if oc := a.VerifyLines([]uint64{g0}, 2); !errors.Is(oc[0].Err, ErrMemberFailed) {
		t.Fatalf("VerifyLines on the failed member: %v, want ErrMemberFailed", oc[0].Err)
	}
	if _, err := a.ShredLine(g0); !errors.Is(err, ErrMemberFailed) {
		t.Fatalf("ShredLine on the failed member: %v, want ErrMemberFailed", err)
	}
	rec, _, err := a.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rec) != fmt.Sprint(want) {
		t.Fatalf("Scan() recovered %+v, want %+v", rec, want)
	}
	if err := a.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	rep, err := a.VerifyLine(g0)
	if err != nil || !rep.OK {
		t.Fatalf("verify after repair: %+v err=%v", rep, err)
	}
	if rep.Line.Record.Hash != li.Record.Hash {
		t.Fatal("re-heated line hash differs from the original")
	}
	if _, err := a.RepairLine(g0 + 1); err == nil {
		t.Fatal("RepairLine of an address that is not a line start was accepted")
	}
}

// TestRepairedMemberKeepsTracerAndConcurrency: the spare sled a member
// rebuild commissions carries the array's tracer and current fan-out
// width, so its rebuild and later I/O emit spans and fan out like its
// peers.
func TestRepairedMemberKeepsTracerAndConcurrency(t *testing.T) {
	a := mustBuild(t, 3, 1, 8, 64)
	fillArray(t, a, 7)
	tr := trace.New(1 << 12)
	a.SetTracer(tr)
	a.SetConcurrency(3)
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	if err := a.RepairMember(1); err != nil {
		t.Fatal(err)
	}
	dev := a.MemberDevice(1)
	if dev.Tracer() != tr {
		t.Fatal("repaired member lost the array's tracer")
	}
	if dev.Concurrency() != 3 {
		t.Fatalf("repaired member fan-out width %d, want 3", dev.Concurrency())
	}
}

// TestFailedRebuildKeepsMemberLines: a member rebuild whose
// reconstruction fails leaves the lost sled in place, so the array
// still knows the heated lines it carried.
func TestFailedRebuildKeepsMemberLines(t *testing.T) {
	a := mustBuild(t, 3, 1, 16, 128)
	g0 := lineOnMember(t, a, 1, 3)
	if err := a.WriteLineBatch(g0, 3, [][]byte{payload(1), payload(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.HeatLine(g0, 3); err != nil {
		t.Fatal(err)
	}
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	if err := a.FailMember(2); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("second failure: %v, want ErrTooManyFailures", err)
	}
	if err := a.RepairMember(1); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("rebuild with two members down: %v, want ErrTooManyFailures", err)
	}
	want := []device.LineInfo{{Start: g0, LogN: 3}}
	if got := a.Lines(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Lines() after the failed rebuild = %+v, want %+v", got, want)
	}
}

// TestEveryCommandChargesItsTask runs each task-carrying Dev command
// with a fresh task on a raw device, a width-1 array, a width-4,
// parity-1 array, and the same array with member 1 failed. Every
// command charges its task exactly the shared clock's advance, and the
// raw and width-1 clocks advance alike (width-1 identity). Member 1
// holds global blocks 6 and 7, so on the degraded array the read is
// reconstructed from parity and both writes land in the mirror and
// flush parity to the survivors.
func TestEveryCommandChargesItsTask(t *testing.T) {
	run := func(base uint64, n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = payload(base + uint64(i))
		}
		return out
	}
	commands := []struct {
		name string
		do   func(d device.Dev, task *trace.Task) error
		// degraded is the array counter the command must raise on the
		// degraded array.
		degraded func(Stats) uint64
	}{
		{"MRSTraced", func(d device.Dev, task *trace.Task) error {
			_, err := d.MRSTraced(task, 6)
			return err
		}, func(s Stats) uint64 { return s.DegradedReads }},
		{"WriteBlocksTraced", func(d device.Dev, task *trace.Task) error {
			return d.WriteBlocksTraced(task, 6, run(100, 4))
		}, func(s Stats) uint64 { return s.ParityBlockWrites }},
		{"WriteRunsFannedTraced", func(d device.Dev, task *trace.Task) error {
			runs := []device.WriteRun{{Start: 2, Blocks: run(200, 3)}, {Start: 20, Blocks: run(300, 5)}}
			return errors.Join(d.WriteRunsFannedTraced(task, runs, 2)...)
		}, func(s Stats) uint64 { return s.ParityBlockWrites }},
	}
	for _, cmd := range commands {
		t.Run(cmd.name, func(t *testing.T) {
			degraded := mustBuild(t, 4, 1, 8, 256)
			devs := []struct {
				name string
				d    device.Dev
			}{
				{"raw", device.New(device.QuietParams(256))},
				{"width 1", mustBuild(t, 1, 0, 8, 256)},
				{"width 4 parity 1", mustBuild(t, 4, 1, 8, 256)},
				{"width 4 parity 1, member 1 failed", degraded},
			}
			var advances []time.Duration
			for _, dv := range devs {
				if err := dv.d.WriteBlocksTraced(nil, 0, run(0, 32)); err != nil {
					t.Fatalf("%s: setup write: %v", dv.name, err)
				}
				if dv.d == device.Dev(degraded) {
					if err := degraded.FailMember(1); err != nil {
						t.Fatal(err)
					}
				}
				before := cmd.degraded(degraded.ArrayStats())
				task := &trace.Task{}
				c0 := dv.d.Clock().Now()
				if err := cmd.do(dv.d, task); err != nil {
					t.Fatalf("%s: %v", dv.name, err)
				}
				adv := dv.d.Clock().Now() - c0
				if task.DeviceNS() <= 0 || task.DeviceNS() != int64(adv) {
					t.Fatalf("%s: task charged %d ns, shared clock advanced %d ns", dv.name, task.DeviceNS(), adv)
				}
				if dv.d == device.Dev(degraded) && cmd.degraded(degraded.ArrayStats()) == before {
					t.Fatalf("%s: the command took no degraded path", dv.name)
				}
				advances = append(advances, adv)
			}
			if advances[0] != advances[1] {
				t.Fatalf("raw clock advanced %v, width-1 array %v", advances[0], advances[1])
			}
		})
	}
}
