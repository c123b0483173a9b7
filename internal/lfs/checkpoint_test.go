package lfs

import (
	"errors"
	"fmt"
	"testing"

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
	ba, err := a.Device().MRS(0)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Device().MRS(0)
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

// BenchmarkCheckpoint writes one checkpoint per op of a 1,024-file
// namespace, each file two data blocks and its inode: ~3,000 live
// blocks, so every checkpoint serializes a liveness table of ~3,000
// entries beside the imap and directory.
func BenchmarkCheckpoint(b *testing.B) {
	const files = 1024
	fs := testFS(b, 16384, Params{
		SegmentBlocks:    256,
		CheckpointBlocks: 512,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
	})
	for i := range files {
		ino, err := fs.Create(fmt.Sprintf("f%04d", i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			b.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	live := 0
	for _, s := range fs.Segments() {
		live += s.LiveBlocks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(live), "live-blocks")
}
