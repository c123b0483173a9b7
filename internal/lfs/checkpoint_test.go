package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sero/internal/device"
)

func TestMountFreshDeviceFails(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	// Never synced: checkpoint region is unwritten; mounting must fail
	// cleanly, not panic.
	if _, err := Mount(fs.Device(), fs.Params()); err == nil {
		t.Fatal("mount of unformatted device succeeded")
	}
}

func TestMountCorruptCheckpoint(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("f", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the checkpoint's first block with a forged frame whose
	// payload is garbage.
	garbage := make([]byte, device.DataBytes)
	garbage[0] = 0xFF
	if err := fs.Device().(*device.Device).ForgeBlock(0, garbage); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(fs.Device(), fs.Params()); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err %v", err)
	}
}

func TestMountAfterManySyncs(t *testing.T) {
	fs := testFS(t, 1024, smallParams())
	for round := 0; round < 10; round++ {
		name := string(rune('a' + round))
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(round), device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs2.Names()) != 10 {
		t.Fatalf("names %d", len(fs2.Names()))
	}
}

func TestMountPreservesNextIno(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino1, _ := fs.Create("one", 0)
	if err := fs.WriteFile(ino1, payload(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	ino2, err := fs2.Create("two", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ino2 <= ino1 {
		t.Fatalf("inode counter regressed: %d after %d", ino2, ino1)
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	// Two identical op sequences must produce byte-identical
	// checkpoints (map-order independence).
	build := func() *FS {
		fs := testFS(t, 512, smallParams())
		for _, n := range []string{"zeta", "alpha", "mid"} {
			ino, err := fs.Create(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(ino, payload(7, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := build(), build()
	ba, err := a.Device().MRSTraced(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Device().MRSTraced(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("checkpoints differ at byte %d", i)
		}
	}
}

func TestCleanerPrefersColderSegments(t *testing.T) {
	// Cost-benefit: between two equally utilised full segments, the
	// older one scores higher.
	fs := testFS(t, 1024, smallParams())
	// Build two full segments with one live block each, separated in
	// time.
	a, _ := fs.Create("a", 0)
	if err := fs.WriteFile(a, payload(1, 16*device.DataBytes)); err == nil {
		_ = fs.Sync()
	}
	segsBefore := fs.Segments()
	_ = segsBefore
	var cs CleanStats
	victims := fs.pickVictims(1, &cs)
	for _, victim := range victims {
		if victim.state != SegFull {
			t.Fatalf("victim in state %v", victim.state)
		}
	}
}

func TestBimodalityEmptyFS(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if b := fs.Bimodality(); b != 1 {
		t.Fatalf("empty FS bimodality %g", b)
	}
}

func TestDeleteUnknown(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if err := fs.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("short", 0)
	if err := fs.WriteFile(ino, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := fs.Read(ino, 100, buf)
	if err != nil || n != 0 {
		t.Fatalf("read beyond EOF: n=%d err=%v", n, err)
	}
	n, err = fs.Read(ino, 1, buf)
	if err != nil || n != 2 {
		t.Fatalf("clamped read: n=%d err=%v", n, err)
	}
}

func TestStatUnknownIno(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if _, err := fs.Stat(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

// checkpointFS builds an FS holding files two-block files on a quiet
// device and checkpoints it once, ready for the checkpoints under test.
func checkpointFS(tb testing.TB, files, blocks, ckpt, conc int) *FS {
	tb.Helper()
	fs := testFS(tb, blocks, Params{
		SegmentBlocks:    256,
		CheckpointBlocks: ckpt,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 30,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      conc,
	})
	for i := range files {
		ino, err := fs.Create(fmt.Sprintf("f%04d", i), 0)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// TestCheckpointSlotIdenticalAcrossConcurrency pins contract 2 for the
// fanned checkpoint-slot write: the same 1,024-file FS checkpointed at
// Concurrency 1, 2 and 4 puts the same bytes in the slot and mounts to
// the same state. Only the virtual time differs, and at 4 the
// checkpoint costs at most half of what it costs at 1. Each FS is
// built at Concurrency 1 and widened just for the checkpoint under
// test, so the histories, and the write time the slot records, agree.
func TestCheckpointSlotIdenticalAcrossConcurrency(t *testing.T) {
	var slot []byte
	var state string
	var serial time.Duration
	for _, j := range []int{1, 2, 4} {
		fs := checkpointFS(t, 1024, 16384, 512, 1)
		fs.p.Concurrency = j
		t0 := fs.now()
		if err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cost := fs.now() - t0
		got, _ := ReadablePrefix(fs.Device(), fs.slotBase(fs.ckptEpoch), fs.slotBlocks(), 1)
		if _, planes := slotShares(len(got)/device.DataBytes, j); planes != j {
			t.Fatalf("j=%d: a %d-byte slot image fans over %d planes", j, len(got), planes)
		}
		m, err := Mount(fs.Device(), fs.Params())
		if err != nil {
			t.Fatalf("j=%d: mount: %v", j, err)
		}
		if j == 1 {
			slot, state, serial = got, mountFingerprint(m), cost
			continue
		}
		if !bytes.Equal(got, slot) {
			t.Fatalf("j=%d: slot bytes differ from j=1's", j)
		}
		if mountFingerprint(m) != state {
			t.Fatalf("j=%d: mounted state differs from j=1's", j)
		}
		if j == 4 && 2*cost > serial {
			t.Fatalf("j=4 checkpoint took %v, more than half of j=1's %v", cost, serial)
		}
	}
}

// BenchmarkCheckpoint writes one checkpoint per op of a namespace in
// which every file has two data blocks and its inode, so every
// checkpoint serializes a liveness table of ~3 entries per file beside
// the imap and directory: 1,024 files in a 512-block checkpoint
// region, and 100,000 files in the serving trajectory's 32,768-block
// region. Each runs at Concurrency 1 and 4 (at 4 the slot write fans
// over the worker planes) and reports the virtual cost of one
// checkpoint as virt-ms/checkpoint.
func BenchmarkCheckpoint(b *testing.B) {
	for _, c := range []struct{ files, blocks, ckpt int }{
		{1024, 16384, 512},
		{100000, 524288, 32768},
	} {
		for _, j := range []int{1, 4} {
			b.Run(fmt.Sprintf("files=%d/j=%d", c.files, j), func(b *testing.B) {
				fs := checkpointFS(b, c.files, c.blocks, c.ckpt, j)
				live := 0
				for _, s := range fs.Segments() {
					live += s.LiveBlocks
				}
				b.ReportAllocs()
				t0 := fs.now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := fs.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(live), "live-blocks")
				b.ReportMetric(float64(fs.now()-t0)/float64(time.Millisecond)/float64(b.N), "virt-ms/checkpoint")
			})
		}
	}
}

// TestFailedFannedCheckpointKeepsChain pins the failure rule of the
// fanned slot write: a refused run fails the checkpoint although the
// other runs landed, and the previous checkpoint and its chain stay
// authoritative. A bad block is put in each plane's share of the next
// slot in turn (the header's share, a core share, and shares wholly in
// the liveness table, past an intact core frame). After the failed
// checkpoint, a journaled Sync must ack on the old chain, and a
// remount must pick the old epoch and read that write back.
func TestFailedFannedCheckpointKeepsChain(t *testing.T) {
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 256,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	for _, bad := range []uint64{0, 20, 40, 60} {
		dev := quietDev(4096)
		fs, err := New(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			ino, err := fs.Create(fmt.Sprintf("f%03d", i), uint8(i%4))
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile(ino, payload(byte(i), device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil { // epoch 1, slot 0
			t.Fatal(err)
		}
		if err := dev.MarkBad(uint64(fs.slotBlocks()) + bad); err != nil {
			t.Fatal(err)
		}
		before := fs.Stats().Checkpoints
		if err := fs.Checkpoint(); !errors.Is(err, device.ErrBadBlock) {
			t.Fatalf("bad block %d: checkpoint returned %v, want ErrBadBlock", bad, err)
		}
		if fs.ckptEpoch != 1 || fs.Stats().Checkpoints != before {
			t.Fatalf("bad block %d: failed checkpoint moved the epoch to %d", bad, fs.ckptEpoch)
		}
		ino, _ := fs.Lookup("f007")
		want := payload(0xEE, device.DataBytes)
		if err := fs.WriteFile(ino, want); err != nil {
			t.Fatal(err)
		}
		records := fs.Stats().JournalRecords
		if err := fs.Sync(); err != nil {
			t.Fatalf("bad block %d: sync after the failed checkpoint: %v", bad, err)
		}
		if fs.Stats().JournalRecords != records+1 {
			t.Fatalf("bad block %d: the sync did not journal", bad)
		}
		m, err := Mount(dev, p)
		if err != nil {
			t.Fatalf("bad block %d: mount: %v", bad, err)
		}
		if m.ckptEpoch != 1 {
			t.Fatalf("bad block %d: mounted epoch %d, want 1", bad, m.ckptEpoch)
		}
		if got, err := m.ReadFile(ino); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("bad block %d: the write acked after the failed checkpoint is lost: %v", bad, err)
		}
	}
}

// TestMountReadsSlotBaseOnce counts the reads of the two checkpoint
// slots' first blocks during a Mount whose newer slot is valid: the
// mount orders the slots by the epoch each first block claims and
// hands that block on, so each base is read exactly once.
func TestMountReadsSlotBaseOnce(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // epoch 1, slot 0
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil { // epoch 2, slot 1: the newer
		t.Fatal(err)
	}
	dev := fs.Device()
	bases := []uint64{0, uint64(fs.slotBlocks())}
	var mu sync.Mutex
	reads := map[uint64]int{}
	dev.SetReadObserver(func(pba uint64) {
		mu.Lock()
		reads[pba]++
		mu.Unlock()
	})
	m, err := Mount(dev, p)
	dev.SetReadObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ckptEpoch != 2 {
		t.Fatalf("mounted epoch %d, want 2", m.ckptEpoch)
	}
	for _, base := range bases {
		if reads[base] != 1 {
			t.Fatalf("mount read slot base %d %d times, want once (reads %v)", base, reads[base], reads)
		}
	}
}
