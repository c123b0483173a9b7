package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"sero/internal/device"
)

// journalParams is the standard journal-heavy test configuration: the
// first Sync writes the anchoring checkpoint, everything after rides
// the summary tail.
func journalParams() Params {
	p := smallParams()
	p.CheckpointEvery = 1 << 20
	return p
}

func TestJournalSyncLeavesCheckpointAlone(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // anchoring checkpoint
		t.Fatal(err)
	}
	// Snapshot the whole checkpoint region; blocks beyond the written
	// checkpoint are unreadable (never written) and stay that way.
	slot := fs.slotBlocks()
	before := make([][]byte, slot)
	for i := 0; i < slot; i++ {
		before[i], _ = fs.Device().MRSTraced(nil, uint64(i))
	}
	for round := 0; round < 3; round++ {
		if err := fs.WriteFile(ino, payload(byte(10+round), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < slot; i++ {
		after, _ := fs.Device().MRSTraced(nil, uint64(i))
		if !bytes.Equal(before[i], after) {
			t.Fatalf("journaled sync rewrote checkpoint block %d", i)
		}
	}
	st := fs.Stats()
	if st.Checkpoints != 1 || st.JournalRecords != 3 {
		t.Fatalf("stats %+v: want 1 checkpoint, 3 journal records", st)
	}
	// And the journaled syncs are still fully durable, replayed from
	// the three records.
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.MountReport().Records; got != 3 {
		t.Fatalf("mount replayed %d records, want 3", got)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, payload(12, 2*device.DataBytes)) {
		t.Fatalf("journaled state lost across mount: %v", err)
	}
}

// TestReplayedMountMatchesCheckpointMount is the acceptance check: a
// mount that rolls forward through the summary chain must be
// state-identical to a mount of the same history anchored by a fresh
// checkpoint.
func TestReplayedMountMatchesCheckpointMount(t *testing.T) {
	build := func() *FS {
		fs := testFS(t, 1024, journalParams())
		for i := 0; i < 4; i++ {
			ino, err := fs.Create(fmt.Sprintf("f%d", i), uint8(i%2))
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(ino, payload(byte(i), (1+i)*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Rename("f1", "r1"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Delete("f2"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	replayed := build()
	ckpted := build()
	if err := ckpted.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a, err := Mount(replayed.Device(), replayed.Params())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mount(ckpted.Device(), ckpted.Params())
	if err != nil {
		t.Fatal(err)
	}
	na, nb := a.Names(), b.Names()
	if len(na) != len(nb) {
		t.Fatalf("name counts diverge: %v vs %v", na, nb)
	}
	for _, n := range na {
		ia, err := a.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		ib, err := b.Lookup(n)
		if err != nil {
			t.Fatalf("checkpoint mount lacks %s: %v", n, err)
		}
		if ia != ib {
			t.Fatalf("%s: ino %d vs %d", n, ia, ib)
		}
		ca, err := a.ReadFile(ia)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.ReadFile(ib)
		if err != nil || !bytes.Equal(ca, cb) {
			t.Fatalf("%s: contents diverge (%v)", n, err)
		}
	}
	// The inode counter must agree too: the next create allocates the
	// same ino either way.
	ia, err := a.Create("next", 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := b.Create("next", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Fatalf("next ino diverges: %d vs %d", ia, ib)
	}
}

func TestRenameDurableAcrossMount(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	a, _ := fs.Create("a", 0)
	b, _ := fs.Create("b", 0)
	want := payload(7, 2*device.DataBytes)
	if err := fs.WriteFile(b, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(a, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("d", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	names := fs2.Names()
	if len(names) != 2 {
		t.Fatalf("names after mount: %v", names)
	}
	if _, err := fs2.Lookup("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file resurrected: %v", err)
	}
	if _, err := fs2.Lookup("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old name survived rename: %v", err)
	}
	ino, err := fs2.Lookup("c")
	if err != nil || ino != b {
		t.Fatalf("rename lost: %v", err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("renamed content lost: %v", err)
	}
	if _, err := fs2.Lookup("d"); err != nil {
		t.Fatalf("created file lost: %v", err)
	}
}

func TestRenameValidation(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	if _, err := fs.Create("x", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("y", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("ghost", "z"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
	if err := fs.Rename("x", "y"); !errors.Is(err, ErrExists) {
		t.Fatalf("err %v", err)
	}
	if err := fs.Rename("x", ""); err == nil {
		t.Fatal("empty target accepted")
	}
	// Renaming a heated file is legal: the name is directory metadata,
	// not part of the tamper-evident line.
	ino, _ := fs.Create("hot", 0)
	if err := fs.WriteFile(ino, payload(3, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("hot"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("hot", "cold"); err != nil {
		t.Fatal(err)
	}
	reps, err := fs.VerifyFile("cold")
	if err != nil || len(reps) != 1 || !reps[0].OK {
		t.Fatalf("renamed heated file fails verify: %v %v", reps, err)
	}
}

// TestJournalJumpSpansSegments drives enough journaled syncs that the
// chain overflows its first segment and links into a second one.
func TestJournalJumpSpansSegments(t *testing.T) {
	fs := testFS(t, 2048, journalParams())
	inos := make([]Ino, 6)
	for i := range inos {
		inos[i], _ = fs.Create(fmt.Sprintf("f%d", i), 0)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 24; round++ {
		for i, ino := range inos {
			if err := fs.WriteFile(ino, payload(byte(round*7+i), 2*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	journalSegs := 0
	for _, s := range fs.Segments() {
		if s.Journal {
			journalSegs++
		}
	}
	if journalSegs < 2 {
		t.Fatalf("chain never spanned segments: %d journal-flagged segments", journalSegs)
	}
	rep, err := CheckJournal(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jumps < 1 || !rep.Healthy() {
		t.Fatalf("report %+v: want ≥1 jump, healthy", rep)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	for i, ino := range inos {
		got, rerr := fs2.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, payload(byte(23*7+i), 2*device.DataBytes)) {
			t.Fatalf("file %d lost across jumped chain: %v", i, rerr)
		}
	}
	// The remounted FS continues the chain where it stopped.
	if err := fs2.WriteFile(inos[0], payload(99, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwriting block 0 does not truncate: the old second block
	// survives behind the fresh first one.
	want := append([]byte(nil), payload(99, device.DataBytes)...)
	want = append(want, payload(byte(23*7), 2*device.DataBytes)[device.DataBytes:]...)
	fs3, err := Mount(fs2.Device(), fs2.Params())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs3.ReadFile(inos[0])
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-remount sync lost: %v", err)
	}
}

// TestHeatedFileSurvivesReplay pins the HeatFile journaling path: the
// heat relocation rewrites the imap device-direct, so the following
// summary record must carry it and a replayed mount must find the
// frozen inode inside the line — verifiable, readable, back-pointers
// agreeing.
func TestHeatedFileSurvivesReplay(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	ino, _ := fs.Create("evidence", 1)
	data := payload(7, 3*device.DataBytes)
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // anchoring checkpoint
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("evidence"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // summary record carries the heat
		t.Fatal(err)
	}
	if st := fs.Stats(); st.Checkpoints != 1 || st.JournalRecords == 0 {
		t.Fatalf("heat sync did not journal: %+v", st)
	}
	rep, err := CheckJournal(fs.Device(), fs.Params())
	if err != nil || !rep.Healthy() {
		t.Fatalf("journal report %+v: %v", rep, err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	st, err := fs2.Stat(ino)
	if err != nil || !st.Heated() {
		t.Fatalf("heated flag lost through replay: %v", err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("heated content lost through replay: %v", err)
	}
	reps, err := fs2.VerifyFile("evidence")
	if err != nil || len(reps) != 1 || !reps[0].OK {
		t.Fatalf("heated file fails verify after replay: %v %v", reps, err)
	}
}

func TestCheckpointEveryPolicy(t *testing.T) {
	// CheckpointEvery=1 reproduces the pre-journal behaviour: every
	// non-empty Sync rewrites the checkpoint.
	p := smallParams()
	p.CheckpointEvery = 1
	fs := testFS(t, 1024, p)
	ino, _ := fs.Create("x", 0)
	for round := 0; round < 4; round++ {
		if err := fs.WriteFile(ino, payload(byte(round), device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := fs.Stats()
	if st.Checkpoints != 4 || st.JournalRecords != 0 {
		t.Fatalf("CheckpointEvery=1 stats %+v", st)
	}

	// A finite interval flips from records to a checkpoint once the
	// appended-block budget is spent.
	p.CheckpointEvery = 8
	fs = testFS(t, 1024, p)
	ino, _ = fs.Create("x", 0)
	for round := 0; round < 6; round++ {
		if err := fs.WriteFile(ino, payload(byte(round), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st = fs.Stats()
	if st.Checkpoints < 2 || st.JournalRecords == 0 {
		t.Fatalf("CheckpointEvery=8 stats %+v: want both checkpoints and records", st)
	}

	if _, err := New(fs.Device(), Params{SegmentBlocks: 16, CheckpointBlocks: 16, CheckpointEvery: -1}); err == nil {
		t.Fatal("negative CheckpointEvery accepted")
	}
}

func TestExplicitCheckpointResetsTail(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	ino, _ := fs.Create("x", 0)
	for round := 0; round < 3; round++ {
		if err := fs.WriteFile(ino, payload(byte(round), device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := CheckJournal(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Epoch != 1 { // first sync checkpointed
		t.Fatalf("pre-checkpoint report %+v", rep)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err = CheckJournal(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.Epoch != 2 || !rep.Healthy() {
		t.Fatalf("post-checkpoint report %+v", rep)
	}
}

// TestTornTailRecoversCleanly scribbles over the newest record and
// expects the mount to stop at the previous one — no error, previous
// state intact.
func TestTornTailRecoversCleanly(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	ino, _ := fs.Create("x", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(2, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // record 1
		t.Fatal(err)
	}
	want := payload(2, device.DataBytes)
	if err := fs.WriteFile(ino, payload(3, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // record 2 — about to be torn
		t.Fatal(err)
	}
	// Tear the newest record: it sits immediately in front of the
	// reserved promise slot. Zero its block.
	tear := fs.jpromise - 1
	if err := fs.Device().WriteBlocksTraced(nil, tear, [][]byte{make([]byte, device.DataBytes)}); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatalf("mount errored on torn tail: %v", err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("state before the torn record lost: %v", err)
	}
}

// TestStaleSlotFallback corrupts the newest checkpoint slot outright
// (a defect, not a crash) and expects the mount to fall back to the
// older slot's consistent state.
func TestStaleSlotFallback(t *testing.T) {
	fs := testFS(t, 1024, journalParams())
	ino, _ := fs.Create("x", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // epoch 1, slot 0
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(2, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // journal record on epoch 1's chain
		t.Fatal(err)
	}
	want := payload(2, device.DataBytes)
	if err := fs.Checkpoint(); err != nil { // epoch 2, slot 1
		t.Fatal(err)
	}
	// Corrupt slot 1 (garbage length field fails validation).
	slot := fs.slotBlocks()
	garbage := make([]byte, device.DataBytes)
	for i := range garbage {
		garbage[i] = 0xFF
	}
	if err := fs.Device().WriteBlocksTraced(nil, uint64(slot), [][]byte{garbage}); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatalf("mount with one dead slot failed: %v", err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("fallback slot lost acked state: %v", err)
	}
}

// benchmarkSyncStyle measures the virtual cost of small-append syncs
// when every Sync checkpoints (every=1) versus when Sync rides the
// summary tail. The FS carries a realistic metadata population so the
// checkpoint cost reflects what Sync used to pay on every ack.
func benchmarkSyncStyle(b *testing.B, every int) {
	const files = 320
	for i := 0; i < b.N; i++ {
		p := Params{
			SegmentBlocks:    64,
			CheckpointBlocks: 64,
			WritebackBlocks:  64,
			CheckpointEvery:  every,
			HeatAware:        true,
			ReserveSegments:  2,
		}
		fs := testFS(b, 16384, p)
		inos := make([]Ino, files)
		for j := range inos {
			var err error
			if inos[j], err = fs.Create(fmt.Sprintf("f%03d", j), 0); err != nil {
				b.Fatal(err)
			}
			if err := fs.WriteFile(inos[j], payload(byte(j), device.DataBytes)); err != nil {
				b.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
		const syncs = 64
		start := fs.Device().Clock().Now()
		for n := 0; n < syncs; n++ {
			if err := fs.WriteFile(inos[n%files], payload(byte(n), device.DataBytes)); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		virt := fs.Device().Clock().Now() - start
		b.ReportMetric(float64(virt.Microseconds())/syncs, "virt-µs/sync")
	}
}

func BenchmarkSyncCheckpoint(b *testing.B) { benchmarkSyncStyle(b, 1) }
func BenchmarkSyncJournal(b *testing.B)    { benchmarkSyncStyle(b, 1<<20) }

// benchmarkMountReplay measures mount-time roll-forward cost over a
// summary tail of the given length.
func benchmarkMountReplay(b *testing.B, tail int) {
	for i := 0; i < b.N; i++ {
		fs := testFS(b, 8192, Params{
			SegmentBlocks:    64,
			CheckpointBlocks: 64,
			WritebackBlocks:  64,
			CheckpointEvery:  1 << 20,
			HeatAware:        true,
			ReserveSegments:  2,
		})
		ino, err := fs.Create("bench", 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(0, device.DataBytes)); err != nil {
			b.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < tail; n++ {
			if err := fs.WriteFile(ino, payload(byte(n), device.DataBytes)); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		start := fs.Device().Clock().Now()
		fs2, err := Mount(fs.Device(), fs.Params())
		if err != nil {
			b.Fatal(err)
		}
		virt := fs.Device().Clock().Now() - start
		if got := fs2.MountReport().Records; got != tail {
			b.Fatalf("replayed %d records, want %d", got, tail)
		}
		b.ReportMetric(float64(virt.Milliseconds()), "virt-ms/mount")
		b.ReportMetric(float64(tail), "records")
	}
}

func BenchmarkMountReplayShort(b *testing.B) { benchmarkMountReplay(b, 4) }
func BenchmarkMountReplayLong(b *testing.B)  { benchmarkMountReplay(b, 64) }

// benchmarkMountNamespace measures the two mount regimes — the
// table-driven rebuild and the full-walk fallback — over an image with
// the given namespace width and journal-tail length: the liveness
// table makes mount cost O(segments + replayed tail) where the walk
// pays O(inodes).
func benchmarkMountNamespace(b *testing.B, files, tail int) {
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 128,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
	}
	for i := 0; i < b.N; i++ {
		fs := testFS(b, 8192, p)
		inos := make([]Ino, files)
		for j := range inos {
			var err error
			if inos[j], err = fs.Create(fmt.Sprintf("f%04d", j), 0); err != nil {
				b.Fatal(err)
			}
			if err := fs.WriteFile(inos[j], payload(byte(j), device.DataBytes)); err != nil {
				b.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
		if err := fs.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < tail; n++ {
			if err := fs.WriteFile(inos[n%files], payload(byte(n), device.DataBytes)); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		dev := fs.Device()
		t0 := dev.Clock().Now()
		tab, err := Mount(dev, p)
		if err != nil {
			b.Fatal(err)
		}
		tableCost := dev.Clock().Now() - t0
		if !tab.MountReport().TableMount {
			b.Fatalf("mount fell back: %q", tab.MountReport().Fallback)
		}
		t1 := dev.Clock().Now()
		walk, err := mount(dev, p, false)
		if err != nil {
			b.Fatal(err)
		}
		walkCost := dev.Clock().Now() - t1
		b.ReportMetric(float64(tableCost.Microseconds()), "virt-µs/table-mount")
		b.ReportMetric(float64(walkCost.Microseconds()), "virt-µs/walk-mount")
		b.ReportMetric(float64(walkCost)/float64(tableCost), "speedup")
		b.ReportMetric(float64(walk.MountReport().InodesRead), "inodes-walked")
	}
}

// BenchmarkMountReplayWide is the large-namespace regime: many files,
// short tail — the walk's worst case and the table's best.
func BenchmarkMountReplayWide(b *testing.B) { benchmarkMountNamespace(b, 480, 4) }

// BenchmarkMountReplayDeep is the long-tail regime: few files, a long
// journal tail — replay dominates and both mounts converge.
func BenchmarkMountReplayDeep(b *testing.B) { benchmarkMountNamespace(b, 12, 96) }

// TestCheckJournalDeterministic runs CheckJournal over identical
// images built afresh: its inode cross-check must read in a fixed
// order, so every run advances the clock by the same amount.
func TestCheckJournalDeterministic(t *testing.T) {
	p := journalParams()
	var want time.Duration
	for run := 0; run < 8; run++ {
		fs := testFS(t, 2048, p)
		for i := 0; i < 60; i++ {
			ino, err := fs.Create(fmt.Sprintf("f%02d", i), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(ino, payload(byte(i), device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		clock := fs.Device().Clock()
		t0 := clock.Now()
		rep, err := CheckJournal(fs.Device(), p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Files != 60 || !rep.Healthy() {
			t.Fatalf("run %d: %+v", run, rep)
		}
		got := clock.Now() - t0
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: CheckJournal advanced the clock %v, run 0 %v", run, got, want)
		}
	}
}
