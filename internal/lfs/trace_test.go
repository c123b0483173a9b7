package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/device"
	"sero/internal/trace"
)

// tracedWorkloadParams is the shared configuration for the trace
// determinism runs: four heat-affinity classes with the fanned
// multi-class flush on the path, journaled syncs and a cleaning pass.
func tracedWorkloadParams(conc int) Params {
	return Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 64,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      conc,
	}
}

// runTracedWorkload replays one fixed mixed workload against a fresh
// traced FS and returns the exported Chrome JSON — the byte stream
// the determinism test compares.
func runTracedWorkload(t testing.TB, conc int) []byte {
	t.Helper()
	fs := testFS(t, 8192, tracedWorkloadParams(conc))
	tr := trace.New(trace.DefaultBuffer)
	fs.Device().SetTracer(tr)

	var inos []Ino
	for i := 0; i < 12; i++ {
		ino, err := fs.Create(fmt.Sprintf("f%02d", i), uint8(i%4))
		if err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	for round := 0; round < 4; round++ {
		for i, ino := range inos {
			if err := fs.WriteFile(ino, payload(byte(round*16+i), (2+i%3)*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete("f03"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("f05", "f05r"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f00", "f05r", "f11"} {
		ino, err := fs.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(ino); err != nil {
			t.Fatal(err)
		}
	}
	fs.Clean(fs.FreeSegments() + 2)
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	if tr.Dropped() != 0 {
		t.Fatalf("workload overflowed the %d-span ring (%d dropped)", trace.DefaultBuffer, tr.Dropped())
	}
	doc, err := trace.ChromeJSON(tr.Spans(), tr.Dropped())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTraceDeterministicAcrossConcurrency runs the identical workload
// twice at each fan-out width and requires byte-identical exported
// traces: span content (names, tracks, virtual timestamps, durations,
// payload counters) must be a pure function of workload and
// configuration, never of emission interleaving.
func TestTraceDeterministicAcrossConcurrency(t *testing.T) {
	for _, conc := range []int{1, 2, 4} {
		a := runTracedWorkload(t, conc)
		b := runTracedWorkload(t, conc)
		if !bytes.Equal(a, b) {
			t.Fatalf("conc=%d: two identical runs exported different traces (%d vs %d bytes)",
				conc, len(a), len(b))
		}
		if conc == 4 && !bytes.Contains(a, []byte("write-fanout")) {
			// At fan-out width 4 the multi-class Sync flush runs fanned;
			// the join span must be present.
			t.Fatal("trace missing the write-fanout join span")
		}
	}
}

// TestTraceCrashSweepNoRolledBackBlocks crashes a traced workload at
// sampled block boundaries, mounts every crash image with a fresh
// tracer, and asserts the recovered file system's traced reads only
// ever touch blocks that survived the crash (or the checkpoint
// region) — recovered metadata pointing a read at a rolled-back log
// block would surface here as a foreign pba in the span stream.
func TestTraceCrashSweepNoRolledBackBlocks(t *testing.T) {
	const devBlocks = 4096
	p := tracedWorkloadParams(2)
	dev := quietDev(devBlocks)
	rec := recordWrites(dev)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	firstAck := -1

	var inos []Ino
	for i := 0; i < 8; i++ {
		ino, cerr := fs.Create(fmt.Sprintf("c%02d", i), uint8(i%4))
		if cerr != nil {
			t.Fatal(cerr)
		}
		inos = append(inos, ino)
	}
	for round := 0; round < 3; round++ {
		for i, ino := range inos {
			if err := fs.WriteFile(ino, payload(byte(round*8+i), 2*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if firstAck < 0 {
			firstAck = rec.count()
		}
	}
	dev.SetWriteObserver(nil)

	total := rec.count()
	for k := firstAck; k <= total; k += 5 {
		crashed := rec.deviceAt(t, devBlocks, k)
		// The surviving prefix: every pba the crash image actually holds.
		survived := make(map[int64]bool, k)
		rec.mu.Lock()
		for _, w := range rec.writes[:k] {
			survived[int64(w.pba)] = true
		}
		rec.mu.Unlock()

		tr := trace.New(trace.DefaultBuffer)
		crashed.SetTracer(tr)
		mounted, merr := Mount(crashed, p)
		if merr != nil {
			t.Fatalf("crash at %d/%d: mount: %v", k, total, merr)
		}
		mountSpans := tr.Spans()
		sawMountPhase := false
		for _, s := range mountSpans {
			if s.Cat == "lfs" && (s.Name == "mount-replay" || s.Name == "mount-table" || s.Name == "mount-walk") {
				sawMountPhase = true
			}
		}
		if !sawMountPhase {
			t.Fatalf("crash at %d/%d: mount emitted no mount-phase span (%d spans)", k, total, len(mountSpans))
		}

		// Post-recovery reads: every traced device read must hit a
		// surviving block or the checkpoint region. A pba outside both
		// is a read of rolled-back (never-durable) data.
		tr.Reset()
		for _, name := range mounted.Names() {
			ino, lerr := mounted.Lookup(name)
			if lerr != nil {
				t.Fatal(lerr)
			}
			if _, rerr := mounted.ReadFile(ino); rerr != nil {
				t.Fatalf("crash at %d/%d: reading %s: %v", k, total, name, rerr)
			}
		}
		for _, s := range tr.Spans() {
			if s.Cat != "device" || s.Name != "read" {
				continue
			}
			if s.V2 < int64(p.CheckpointBlocks) || survived[s.V2] {
				continue
			}
			t.Fatalf("crash at %d/%d: recovered FS read rolled-back block %d", k, total, s.V2)
		}
		crashed.SetTracer(nil)
	}
}

// TestHeatFileTracedChargesItsTask heats a synced file whose inode a
// fresh mount has not cached: the inode read and the relocation reads
// are the heat's own device time, so its task is charged more than
// zero and no more than the clock advanced. (The line write and the
// heat itself take no task, so the charge is below the advance.)
func TestHeatFileTracedChargesItsTask(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	ino, err := fs.Create("evidence", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(7, 3*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	m, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached := m.cachedInode(ino); cached {
		t.Fatal("the mount cached the inode; the heat would read nothing")
	}
	clock := m.Device().Clock()
	task := &trace.Task{}
	t0 := clock.Now()
	if _, err := m.HeatFileTraced(task, "evidence"); err != nil {
		t.Fatal(err)
	}
	advance := int64(clock.Now() - t0)
	if got := task.DeviceNS(); got <= 0 || got > advance {
		t.Fatalf("heat charged its task %d ns of a %d ns clock advance, want (0, %d]", got, advance, advance)
	}
}
