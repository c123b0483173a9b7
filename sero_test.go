package sero

import (
	"bytes"
	"fmt"
	"testing"
)

func TestOpenWriteHeatVerify(t *testing.T) {
	d := Open(Options{Blocks: 256, Quiet: true})
	blocks := [][]byte{
		bytes.Repeat([]byte{1}, BlockSize),
		bytes.Repeat([]byte{2}, BlockSize),
		bytes.Repeat([]byte{3}, BlockSize),
	}
	start, logN, err := d.WriteLine(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Verify(start)
	if err != nil || !rep.OK {
		t.Fatalf("verify %+v %v", rep, err)
	}
	got, err := d.Read(start + 1)
	if err != nil || !bytes.Equal(got, blocks[0]) {
		t.Fatalf("read-back: %v", err)
	}
	if len(d.Lines()) != 1 {
		t.Fatal("line registry")
	}
	audit := d.Audit()
	if !audit.Clean() {
		t.Fatalf("audit: %s", audit.Summary())
	}
	if d.ElapsedVirtual() == 0 {
		t.Fatal("no virtual time consumed")
	}
}

func TestNoisyDeviceWorks(t *testing.T) {
	d := Open(Options{Blocks: 64, Seed: 99})
	data := bytes.Repeat([]byte{0xAB}, BlockSize)
	if err := d.Write(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(5)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("noisy read: %v", err)
	}
}

func TestFSFacade(t *testing.T) {
	d := Open(Options{Blocks: 1024, Quiet: true})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create("report.pdf", 0)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("audit "), 200)
	if err := fs.WriteFile(ino, content); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("report.pdf"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read after heat: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := MountFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err = fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("read after mount: %v", err)
	}
}

func TestRecoverFacade(t *testing.T) {
	d := Open(Options{Blocks: 128, Quiet: true})
	start, logN, err := d.WriteLine([][]byte{bytes.Repeat([]byte{7}, BlockSize)})
	if err != nil {
		t.Fatal(err)
	}
	li, err := d.Heat(start, logN)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Recover()
	if err != nil || !rep.Clean() || len(rep.Lines) != 1 {
		t.Fatalf("recover %+v %v", rep, err)
	}
	if rep.Lines[0].Record.Hash != li.Record.Hash {
		t.Fatal("hash mismatch after recover")
	}
}

func TestLifecycleFacade(t *testing.T) {
	d := Open(Options{Blocks: 64, Quiet: true})
	st := d.Lifecycle()
	if st.TotalBlocks != 64 || st.ReadOnlyRatio != 0 {
		t.Fatalf("lifecycle %+v", st)
	}
}

func TestOpenPanicsWithoutBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Open(Options{})
}

func TestFacadeShredAndImage(t *testing.T) {
	d := Open(Options{Blocks: 128, Quiet: true})
	start, logN, err := d.WriteLine([][]byte{bytes.Repeat([]byte{5}, BlockSize)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Shred(start)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DotsDestroyed == 0 {
		t.Fatal("shred destroyed nothing")
	}
	vr, err := d.Verify(start)
	if err != nil || vr.OK {
		t.Fatalf("shredded line verifies clean: %v", err)
	}

	img := d.SaveImage()
	d2, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Lines()) != 1 {
		t.Fatal("tombstone lost across image")
	}
	vr, err = d2.Verify(start)
	if err != nil || vr.OK {
		t.Fatalf("shred evidence lost across image: %v", err)
	}
}

func TestFacadeLoadImageGarbage(t *testing.T) {
	if _, err := LoadImage([]byte("not an image")); err == nil {
		t.Fatal("garbage image loaded")
	}
}

func TestOpenClampsNegativeConcurrency(t *testing.T) {
	// Regression: Open used to copy Options.Concurrency into the
	// device params unclamped, unlike SetConcurrency.
	d := Open(Options{Blocks: 256, Quiet: true, Concurrency: -3})
	if got := d.Concurrency(); got != 1 {
		t.Fatalf("Concurrency() = %d after Open with -3, want 1", got)
	}
	rep := d.AuditParallel(0) // 0 = configured width; must not hang or panic
	if len(rep.Reports) != 0 {
		t.Fatalf("audit of empty device found %d lines", len(rep.Reports))
	}
	d.SetConcurrency(-7)
	if got := d.Concurrency(); got != 1 {
		t.Fatalf("SetConcurrency(-7) left %d", got)
	}
}

func TestFSOptionsCheckpointValidation(t *testing.T) {
	d := Open(Options{Blocks: 4096, Quiet: true})
	if _, err := NewFS(d, FSOptions{SegmentBlocks: 32, CheckpointBlocks: 48, HeatAware: true}); err == nil {
		t.Fatal("non-power-of-two checkpoint accepted")
	}
	if _, err := NewFS(d, FSOptions{SegmentBlocks: 32, CheckpointBlocks: -32, HeatAware: true}); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
	// Checkpoint sizing is independent of the segment size.
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, CheckpointBlocks: 128, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Params().CheckpointBlocks; got != 128 {
		t.Fatalf("checkpoint region %d, want 128", got)
	}
}

func TestFSOptionsWritebackAndConcurrency(t *testing.T) {
	d := Open(Options{Blocks: 4096, Quiet: true, Concurrency: 4})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, WritebackBlocks: 8, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	p := fs.Params()
	if p.WritebackBlocks != 8 {
		t.Fatalf("writeback %d, want 8", p.WritebackBlocks)
	}
	// Concurrency 0 inherits the device's configured fan-out width.
	if p.Concurrency != 4 {
		t.Fatalf("FS concurrency %d, want the device's 4", p.Concurrency)
	}
	ino, err := fs.Create("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*BlockSize)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := MountFS(d, FSOptions{SegmentBlocks: 32, WritebackBlocks: 8, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("data lost across MountFS")
		}
	}
}

func TestFSJournalAPI(t *testing.T) {
	// The two-tier durability story through the public API: syncs ride
	// the summary tail, CheckFSJournal verifies the chain, Checkpoint
	// resets it, and a mount replays everything acked.
	d := Open(Options{Blocks: 4096, Quiet: true})
	opts := FSOptions{SegmentBlocks: 32, CheckpointEvery: 1 << 20, HeatAware: true}
	fs, err := NewFS(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Params().CheckpointEvery != 1<<20 {
		t.Fatalf("CheckpointEvery %d not plumbed", fs.Params().CheckpointEvery)
	}
	ino, err := fs.Create("ledger", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // anchoring checkpoint
		t.Fatal(err)
	}
	if err := fs.Rename("ledger", "ledger.v2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // summary record
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.JournalRecords == 0 {
		t.Fatalf("no summary records written: %+v", st)
	}
	rep, err := CheckFSJournal(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() || rep.Records == 0 {
		t.Fatalf("journal report %+v", rep)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err = CheckFSJournal(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.Epoch != 2 {
		t.Fatalf("checkpoint did not reset the tail: %+v", rep)
	}
	fs2, err := MountFS(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Lookup("ledger"); err == nil {
		t.Fatal("old name survived journaled rename")
	}
	ino2, err := fs2.Lookup("ledger.v2")
	if err != nil || ino2 != ino {
		t.Fatalf("renamed file lost: %v", err)
	}
	got, err := fs2.ReadFile(ino2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatal("data lost across journaled mount")
		}
	}
}

// TestTraceFacade drives the public tracing surface: StartTrace must
// capture device and FS spans, StopTrace must feed sinks and
// uninstall, the exports must render, and Metrics must snapshot the
// counters registry consistently.
func TestTraceFacade(t *testing.T) {
	d := Open(Options{Blocks: 1024, Quiet: true})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	var sunk []TraceSpan
	d.StartTrace(TraceOptions{Sinks: []TraceSink{func(spans []TraceSpan) { sunk = spans }}})

	ino, err := fs.Create("traced", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, bytes.Repeat([]byte("sp"), 4096)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(ino); err != nil {
		t.Fatal(err)
	}

	spans, dropped := d.StopTrace()
	if len(spans) == 0 || dropped != 0 {
		t.Fatalf("StopTrace: %d spans, %d dropped", len(spans), dropped)
	}
	if len(sunk) != len(spans) {
		t.Fatalf("sink saw %d spans, StopTrace returned %d", len(sunk), len(spans))
	}
	cats := map[string]bool{}
	for _, s := range spans {
		cats[s.Cat] = true
	}
	if !cats["device"] || !cats["lfs"] {
		t.Fatalf("missing span categories: %v", cats)
	}
	doc, err := TraceChromeJSON(spans, dropped)
	if err != nil || !bytes.Contains(doc, []byte("traceEvents")) {
		t.Fatalf("TraceChromeJSON: %v", err)
	}
	if sum := TraceSummary(spans); !bytes.Contains([]byte(sum), []byte("sync")) {
		t.Fatalf("summary missing sync phases:\n%s", sum)
	}

	m := Metrics(d, fs)
	if m.FS.Syncs != 1 || m.FS.BlocksAppended == 0 {
		t.Fatalf("metrics snapshot: %+v", m.FS)
	}
	if m.TraceDropped != 0 {
		t.Fatalf("TraceDropped = %d after StopTrace", m.TraceDropped)
	}

	// A second StopTrace without StartTrace is a clean no-op.
	if s2, d2 := d.StopTrace(); s2 != nil || d2 != 0 {
		t.Fatalf("repeated StopTrace: %d spans, %d dropped", len(s2), d2)
	}
}

// TestMetricsCountsOmittedTable: a checkpoint whose liveness table
// does not fit the slot is written without it, and the registry counts
// that instead of dropping the table silently.
func TestMetricsCountsOmittedTable(t *testing.T) {
	d := Open(Options{Blocks: 2048, Quiet: true})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 16, HeatAware: true}) // 8-block slots
	if err != nil {
		t.Fatal(err)
	}
	for i := range 32 {
		ino, err := fs.Create(fmt.Sprintf("f%03d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, make([]byte, 8*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m := Metrics(d, fs); m.FS.CheckpointTableOmitted == 0 || m.FS.CheckpointTableOmitted > m.FS.Checkpoints {
		t.Fatalf("CheckpointTableOmitted %d of %d checkpoints", m.FS.CheckpointTableOmitted, m.FS.Checkpoints)
	}
}
