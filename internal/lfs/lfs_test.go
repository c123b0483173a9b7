package lfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"sero/internal/device"
	"sero/internal/medium"
)

// testFS builds an FS on a quiet device. blocks must cover the
// checkpoint region plus at least two segments.
func testFS(t testing.TB, blocks int, p Params) *FS {
	t.Helper()
	fs, err := New(device.New(device.QuietParams(blocks)), p)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func smallParams() Params {
	return Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		HeatAware:        true,
		ReserveSegments:  2,
	}
}

func payload(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

func TestCreateWriteReadSync(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, err := fs.Create("a.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(1, 3*device.DataBytes+100)
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	// Readable before sync (dirty buffer).
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("pre-sync read: %v", err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err = fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-sync read: %v", err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if _, err := fs.Create("x", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x", 0); !errors.Is(err, ErrExists) {
		t.Fatalf("err %v", err)
	}
	if _, err := fs.Create("", 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestLookupAndNames(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("f1", 0)
	got, err := fs.Lookup("f1")
	if err != nil || got != ino {
		t.Fatalf("lookup %d %v", got, err)
	}
	if _, err := fs.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
	if n := fs.Names(); len(n) != 1 || n[0] != "f1" {
		t.Fatalf("names %v", n)
	}
}

func TestPartialOverwrite(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("f", 0)
	if err := fs.WriteFile(ino, payload(1, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Overwrite 100 bytes in the middle of block 1 after sync: the
	// read-modify-write path must preserve the rest.
	patch := payload(0xFF, 100)
	if err := fs.Write(ino, device.DataBytes+50, patch); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	want := payload(1, 2*device.DataBytes)
	copy(want[device.DataBytes+50:], patch)
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("partial overwrite corrupted data")
	}
}

// TestPartialOverwriteUnreadableBlockFails pins the read-modify-write
// read: a partial overwrite of a block whose old copy cannot be read
// must fail with the device's error instead of buffering a zero-filled
// block that the next Sync would make durable. The refused write
// leaves no dirty buffer, pending size or BytesWritten change behind,
// also when the unreadable block is not the write's first.
func TestPartialOverwriteUnreadableBlockFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bad     int    // file block whose copy is marked bad
		off     uint64 // the refused write's offset
		n       int    // and its length
		cleanTo int    // bytes still readable afterwards
	}{
		{"single block", 0, 100, 10, 0},
		{"second of two blocks", 1, 100, device.DataBytes + 200, device.DataBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := device.New(device.QuietParams(512))
			fs, err := New(dev, smallParams())
			if err != nil {
				t.Fatal(err)
			}
			ino, _ := fs.Create("f", 0)
			old := payload(1, device.DataBytes+200)
			if err := fs.WriteFile(ino, old); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			in, err := fs.Stat(ino)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.MarkBad(in.Blocks[tc.bad]); err != nil {
				t.Fatal(err)
			}
			written := fs.Stats().BytesWritten
			if err := fs.Write(ino, tc.off, payload(0xFF, tc.n)); !errors.Is(err, device.ErrBadBlock) {
				t.Fatalf("write over unreadable block %d: err %v, want ErrBadBlock", tc.bad, err)
			}
			if n := len(fs.dirty[ino]); n != 0 {
				t.Fatalf("refused write left %d dirty blocks", n)
			}
			if ps, ok := fs.pendSize[ino]; ok {
				t.Fatalf("refused write left pending size %d", ps)
			}
			if got := fs.Stats().BytesWritten; got != written {
				t.Fatalf("refused write moved BytesWritten %d -> %d", written, got)
			}
			got := make([]byte, tc.cleanTo)
			if _, err := fs.Read(ino, 0, got); err != nil || !bytes.Equal(got, old[:tc.cleanTo]) {
				t.Fatalf("readable prefix changed (err %v)", err)
			}
		})
	}
}

func TestSparseFileReadsZero(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("sparse", 0)
	if err := fs.Write(ino, 3*device.DataBytes, []byte("end")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := fs.Read(ino, 100, buf)
	if err != nil || n != 10 {
		t.Fatalf("hole read %d %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("gone", 0)
	if err := fs.WriteFile(ino, payload(2, 4*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	segs := fs.Segments()
	liveBefore := 0
	for _, s := range segs {
		liveBefore += s.LiveBlocks
	}
	if liveBefore != 5 { // 4 data + 1 inode
		t.Fatalf("live before delete %d", liveBefore)
	}
	if err := fs.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	liveAfter := 0
	for _, s := range fs.Segments() {
		liveAfter += s.LiveBlocks
	}
	if liveAfter != 0 {
		t.Fatalf("live after delete %d", liveAfter)
	}
	if _, err := fs.Lookup("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file still visible")
	}
}

func TestRewriteMarksOldDead(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("rw", 0)
	for round := 0; round < 5; round++ {
		if err := fs.WriteFile(ino, payload(byte(round), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	live := 0
	for _, s := range fs.Segments() {
		live += s.LiveBlocks
	}
	if live != 3 { // 2 data + 1 inode, irrespective of rewrites
		t.Fatalf("live %d after rewrites", live)
	}
}

func TestCleanerReclaims(t *testing.T) {
	fs := testFS(t, 2048, smallParams())
	ino, _ := fs.Create("churn", 0)
	// Fill several segments with rewrites; most blocks die.
	for round := 0; round < 40; round++ {
		if err := fs.WriteFile(ino, payload(byte(round), 4*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := fs.FreeSegments()
	cs := fs.Clean(fs.FreeSegments() + 3)
	if cs.SegmentsCleaned == 0 {
		t.Fatalf("cleaner reclaimed nothing: %+v", cs)
	}
	if fs.FreeSegments() <= freeBefore {
		t.Fatal("free segments did not grow")
	}
	// Data integrity after cleaning.
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, payload(39, 4*device.DataBytes)) {
		t.Fatalf("data corrupted by cleaner: %v", err)
	}
}

func TestCleanerPreservesMultipleFiles(t *testing.T) {
	fs := testFS(t, 2048, smallParams())
	inos := make([]Ino, 6)
	for i := range inos {
		var err error
		inos[i], err = fs.Create(string(rune('a'+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10; round++ {
		for i, ino := range inos {
			if err := fs.WriteFile(ino, payload(byte(round*i), 3*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fs.Clean(fs.FreeSegments() + 4)
	for i, ino := range inos {
		got, err := fs.ReadFile(ino)
		if err != nil || !bytes.Equal(got, payload(byte(9*i), 3*device.DataBytes)) {
			t.Fatalf("file %d corrupted: %v", i, err)
		}
	}
}

func TestHeatFileAndVerify(t *testing.T) {
	fs := testFS(t, 1024, smallParams())
	ino, _ := fs.Create("evidence", 1)
	data := payload(7, 5*device.DataBytes)
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("evidence")
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksMoved != 6 { // 5 data + inode
		t.Fatalf("moved %d", res.BlocksMoved)
	}
	// Line: hash+inode+5 data = 7 -> 8 blocks.
	if res.Line.Blocks() != 8 {
		t.Fatalf("line blocks %d", res.Line.Blocks())
	}
	// Content unchanged.
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("heated file unreadable: %v", err)
	}
	// Verifies clean.
	reps, err := fs.VerifyFile("evidence")
	if err != nil || len(reps) != 1 || !reps[0].OK {
		t.Fatalf("verify %v %v", reps, err)
	}
	// Frozen: writes and deletes refused.
	if err := fs.Write(ino, 0, []byte("x")); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("write to heated: %v", err)
	}
	if err := fs.Delete("evidence"); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("delete heated: %v", err)
	}
	if _, err := fs.HeatFile("evidence"); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("double heat: %v", err)
	}
}

func TestHeatFileDetectsTamper(t *testing.T) {
	fs := testFS(t, 1024, smallParams())
	ino, _ := fs.Create("victim", 0)
	if err := fs.WriteFile(ino, payload(3, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("victim")
	if err != nil {
		t.Fatal(err)
	}
	// Attacker forges a data block inside the heated line.
	target := res.Line.Start + 2
	if err := fs.Device().(*device.Device).ForgeBlock(target, payload(0xAA, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	reps, err := fs.VerifyFile("victim")
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].OK || !reps[0].HashMismatch {
		t.Fatalf("tamper not detected: %+v", reps[0])
	}
}

func TestHeatEmptyFile(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if _, err := fs.Create("empty", 0); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("empty")
	if err != nil {
		t.Fatal(err)
	}
	if res.Line.Blocks() != 2 { // hash + inode
		t.Fatalf("line blocks %d", res.Line.Blocks())
	}
}

func TestHeatUnknownFile(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	if _, err := fs.HeatFile("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

func TestHeatAwareClusteringPinsOnlyHeatSegments(t *testing.T) {
	fs := testFS(t, 2048, smallParams())
	// Interleave regular writes and heats; heat-aware placement must
	// keep data segments unpinned.
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := fs.HeatFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b := fs.Bimodality(); b != 1 {
		t.Fatalf("heat-aware bimodality %g, want 1", b)
	}
	// Pinned segments must contain no live (cleanable) data at all.
	for _, s := range fs.Segments() {
		if s.State == SegPinned && s.LiveBlocks > 0 {
			t.Fatalf("pinned segment %d strands %d live blocks", s.ID, s.LiveBlocks)
		}
	}
}

func TestHeatObliviousStrandsLiveData(t *testing.T) {
	p := smallParams()
	p.HeatAware = false
	fs := testFS(t, 2048, p)
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := fs.HeatFile(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	stranded := 0
	for _, s := range fs.Segments() {
		if s.State == SegPinned {
			stranded += s.LiveBlocks
		}
	}
	if stranded == 0 {
		t.Fatal("heat-oblivious placement stranded nothing — ablation is vacuous")
	}
}

func TestCleanerSkipsPinnedSegments(t *testing.T) {
	fs := testFS(t, 2048, smallParams())
	ino, _ := fs.Create("hot", 0)
	if err := fs.WriteFile(ino, payload(1, 4*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("hot"); err != nil {
		t.Fatal(err)
	}
	// Generate churn so the cleaner has work.
	churn, _ := fs.Create("churn", 0)
	for round := 0; round < 30; round++ {
		if err := fs.WriteFile(churn, payload(byte(round), 6*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fs.Clean(fs.FreeSegments() + 2)
	// The heated file must be untouched and verifiable.
	reps, err := fs.VerifyFile("hot")
	if err != nil || !reps[0].OK {
		t.Fatalf("heated file damaged by cleaner: %v", err)
	}
	for _, s := range fs.Segments() {
		if s.HeatedBlocks > 0 && s.State != SegPinned {
			t.Fatalf("segment %d with heated blocks in state %v", s.ID, s.State)
		}
	}
}

func TestMountRestoresFiles(t *testing.T) {
	fs := testFS(t, 1024, smallParams())
	inoA, _ := fs.Create("a", 0)
	inoB, _ := fs.Create("b", 1)
	dataA := payload(1, 3*device.DataBytes)
	dataB := payload(2, device.DataBytes/2)
	if err := fs.WriteFile(inoA, dataA); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(inoB, dataB); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Re-mount on the same device.
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := fs2.ReadFile(inoA)
	if err != nil || !bytes.Equal(gotA, dataA) {
		t.Fatalf("file a after mount: %v", err)
	}
	gotB, err := fs2.ReadFile(inoB)
	if err != nil || !bytes.Equal(gotB, dataB) {
		t.Fatalf("file b after mount: %v", err)
	}
	st, err := fs2.Stat(inoB)
	if err != nil || !st.Heated() {
		t.Fatal("heated flag lost across mount")
	}
	// New writes must not collide with existing data.
	inoC, err := fs2.Create("c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.WriteFile(inoC, payload(9, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	gotA, err = fs2.ReadFile(inoA)
	if err != nil || !bytes.Equal(gotA, dataA) {
		t.Fatal("new writes after mount corrupted old file")
	}
	reps, err := fs2.VerifyFile("b")
	if err != nil || !reps[0].OK {
		t.Fatalf("heated file b fails verify after mount: %v", err)
	}
}

func TestWriteTooLarge(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("big", 0)
	err := fs.Write(ino, MaxFileBytes-10, make([]byte, 20))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err %v", err)
	}
}

func TestFSFull(t *testing.T) {
	fs := testFS(t, 16+3*16, smallParams()) // checkpoint + 3 segments
	ino, _ := fs.Create("filler", 0)
	var lastErr error
	for i := 0; i < 100 && lastErr == nil; i++ {
		lastErr = fs.WriteFile(ino, payload(byte(i), 8*device.DataBytes))
		if lastErr == nil {
			lastErr = fs.Sync()
		}
	}
	if lastErr == nil {
		t.Skip("device larger than the workload can fill")
	}
	if !errors.Is(lastErr, ErrFull) {
		t.Fatalf("err %v, want ErrFull", lastErr)
	}
}

func TestInodeRoundTripProperty(t *testing.T) {
	f := func(ino uint64, size uint64, flags byte, aff uint8, nb, nh uint8) bool {
		in := &Inode{
			Ino:      Ino(ino),
			Size:     size,
			Flags:    flags,
			Affinity: aff,
		}
		for i := 0; i < int(nb)%40; i++ {
			in.Blocks = append(in.Blocks, uint64(i)*13)
		}
		for i := 0; i < int(nh)%10; i++ {
			in.HeatLines = append(in.HeatLines, uint64(i)*64)
		}
		buf, err := in.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalInode(buf)
		if err != nil {
			return false
		}
		if got.Ino != in.Ino || got.Size != in.Size || got.Flags != in.Flags ||
			got.Affinity != in.Affinity || len(got.Blocks) != len(in.Blocks) ||
			len(got.HeatLines) != len(in.HeatLines) {
			return false
		}
		for i := range in.Blocks {
			if got.Blocks[i] != in.Blocks[i] {
				return false
			}
		}
		for i := range in.HeatLines {
			if got.HeatLines[i] != in.HeatLines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInodeRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalInode(make([]byte, 10)); err == nil {
		t.Fatal("short inode accepted")
	}
	if _, err := UnmarshalInode(make([]byte, device.DataBytes)); err == nil {
		t.Fatal("zero inode accepted")
	}
}

func TestInodeOverflowPointers(t *testing.T) {
	in := &Inode{Ino: 1, Blocks: make([]uint64, MaxDirect+1)}
	if _, err := in.Marshal(); err == nil {
		t.Fatal("oversize inode marshalled")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	dp := device.DefaultParams(64)
	mp := medium.DefaultParams(64, device.DotsPerBlock)
	mp.ReadNoiseSigma = 0
	dp.Medium = mp
	dev := device.New(dp)
	if _, err := New(dev, Params{SegmentBlocks: 48, CheckpointBlocks: 16, ReserveSegments: 1}); err == nil {
		t.Fatal("non-power-of-two segment accepted")
	}
	if _, err := New(dev, Params{SegmentBlocks: 64, CheckpointBlocks: 64, ReserveSegments: 1}); err == nil {
		t.Fatal("too-small device accepted")
	}
}

func TestStatsProgress(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("s", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.BytesWritten == 0 || st.BlocksAppended == 0 || st.Syncs != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSegmentStateString(t *testing.T) {
	names := map[SegmentState]string{
		SegFree: "free", SegActive: "active", SegFull: "full", SegPinned: "pinned",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
}

func TestHeatFileTooLargeForSegment(t *testing.T) {
	// A line must fit one segment; a file needing more blocks than the
	// segment holds is rejected with a clear error, not mangled.
	fs := testFS(t, 512, smallParams()) // 16-block segments
	ino, _ := fs.Create("big", 0)
	if err := fs.WriteFile(ino, payload(1, 20*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("big"); err == nil {
		t.Fatal("oversized heat accepted")
	}
	// The file survives the failed heat.
	got, err := fs.ReadFile(ino)
	if err != nil || len(got) != 20*device.DataBytes {
		t.Fatalf("file damaged by failed heat: %v", err)
	}
}

func TestUnsyncedDataLostOnMount(t *testing.T) {
	// Crash model: buffered writes die with the host; mounted state
	// reflects the last checkpoint, consistently.
	fs := testFS(t, 512, smallParams())
	ino, _ := fs.Create("durable", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes, never synced.
	if err := fs.WriteFile(ino, payload(9, 3*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(1, device.DataBytes)) {
		t.Fatal("mounted state is neither old nor consistent")
	}
}

func BenchmarkLFSWriteSync(b *testing.B) {
	fs := testFS(b, 8192, Params{SegmentBlocks: 64, CheckpointBlocks: 64, HeatAware: true, ReserveSegments: 2})
	ino, err := fs.Create("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	data := payload(1, 4*device.DataBytes)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(ino, data); err != nil {
			b.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLFSHeatFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs := testFS(b, 1024, smallParams())
		ino, err := fs.Create("h", 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(1, 3*device.DataBytes)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := fs.HeatFile("h"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZeroLengthWriteChangesNothing writes no bytes at an offset past
// the end of an empty file: the file must stay empty, nothing may be
// buffered, and the next Sync must append no block.
func TestZeroLengthWriteChangesNothing(t *testing.T) {
	fs := testFS(t, 512, smallParams())
	ino, err := fs.Create("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	appended := fs.Stats().BlocksAppended
	if err := fs.Write(ino, 5000, nil); err != nil {
		t.Fatal(err)
	}
	in, err := fs.Stat(ino)
	if err != nil {
		t.Fatal(err)
	}
	if in.Size != 0 {
		t.Fatalf("size after a zero-length write at 5000: %d, want 0", in.Size)
	}
	if _, ok := fs.dirty[ino]; ok {
		t.Fatal("a zero-length write left a dirty entry")
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().BlocksAppended; got != appended {
		t.Fatalf("the Sync after a zero-length write appended %d blocks", got-appended)
	}
}
