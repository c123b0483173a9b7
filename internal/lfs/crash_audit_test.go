package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/device"
)

// The audit-armed crash sweep. The incremental auditor keeps its round
// cursor in memory only — nothing about a round is persisted — so from
// the auditor's point of view EVERY crash boundary is mid-round. The
// property under test: a crash while audit rounds race the write
// stream never wedges Mount, never loses a write that was durable
// before the crash, and a full audit sweep of the remounted FS reports
// zero findings (crash debris — torn segment tails, stale checkpoint
// regions — must never look like tampering, because audit only sweeps
// heated lines and heat commitment is journaled).
//
// Unlike the main crash sweep (which replays onto a fresh medium and
// therefore excludes HeatFile), this one reconstructs from a SaveImage
// taken after the heated population was frozen, so every crash image
// carries real heated lines for the auditor to sweep.

// imageAt rebuilds a device from a SaveImage baseline plus the first k
// committed magnetic writes recorded after the snapshot.
func imageAt(t testing.TB, rec *crashRecorder, img []byte, k int) *device.Device {
	t.Helper()
	dev, _, err := device.LoadImage(img, device.DefaultParams(0))
	if err != nil {
		t.Fatalf("restoring crash baseline: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, w := range rec.writes[:k] {
		if err := dev.WriteBlocksTraced(nil, w.pba, [][]byte{w.data}); err != nil {
			t.Fatalf("replaying write %d to crash image: %v", w.pba, err)
		}
	}
	return dev
}

func TestCrashMidAuditRoundCleanMount(t *testing.T) {
	const devBlocks = 2048
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  8,
		CheckpointEvery:  48,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      2,
		AuditEvery:       16, // background audit kicks race the writes
	}
	dev := quietDev(devBlocks)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}

	// Freeze a heated population, then snapshot: the baseline every
	// crash image reconstructs from carries these lines.
	const frozen = 3
	for i := 0; i < frozen; i++ {
		name := fmt.Sprintf("frozen-%d", i)
		ino, err := fs.Create(name, uint8(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i+1), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.HeatFile(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	img := dev.SaveImage()
	rec := recordWrites(dev)

	// Write stream with inline audit steps interleaved (small batch so
	// round cursors are mid-flight at most boundaries), on top of the
	// background kicks AuditEvery arms.
	const writes = 40
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("w%d", i%7)
		ino, err := fs.Lookup(name)
		if err != nil {
			ino, err = fs.Create(name, uint8(i%4))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteFile(ino, payload(byte(0x40+i), 192+(i%3)*128)); err != nil {
			t.Fatal(err)
		}
		fs.AuditStep(1)
		if i%5 == 4 {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(fs.AuditFindings()); n != 0 {
		t.Fatalf("live audit reported %d findings on an untampered system", n)
	}
	if fs.Stats().AuditRounds == 0 {
		t.Fatal("live audit completed no rounds")
	}

	total := rec.count()
	if total == 0 {
		t.Fatal("workload committed no writes")
	}
	step := 3
	if testing.Short() {
		step = 11
	}
	if raceDetector {
		step *= 5
	}
	for k := 0; k <= total; k += step {
		crashed := imageAt(t, rec, img, k)
		m, err := Mount(crashed, p)
		if err != nil {
			t.Fatalf("crash at write %d/%d: mount failed: %v", k, total, err)
		}
		// The frozen files were acked before the snapshot: every crash
		// image must serve them intact.
		for i := 0; i < frozen; i++ {
			name := fmt.Sprintf("frozen-%d", i)
			ino, err := m.Lookup(name)
			var got []byte
			if err == nil {
				got, err = m.ReadFile(ino)
			}
			if err != nil || !bytes.Equal(got, payload(byte(i+1), 2*device.DataBytes)) {
				t.Fatalf("crash at write %d/%d: frozen file %s lost or corrupted: %v", k, total, name, err)
			}
		}
		// Two full audit rounds over the remount: the drive must
		// converge (no wedge) and report nothing (no spurious finding).
		lines := len(crashed.Lines())
		rounds := 0
		for s := 0; s < 4*lines+4 && rounds < 2; s++ {
			rep, _ := m.AuditStep(1)
			if rep.RoundComplete {
				rounds++
			}
		}
		if lines > 0 && rounds < 2 {
			t.Fatalf("crash at write %d/%d: audit failed to complete two rounds over %d lines", k, total, lines)
		}
		if n := len(m.AuditFindings()); n != 0 {
			t.Fatalf("crash at write %d/%d: %d spurious audit findings", k, total, n)
		}
	}
}
