package venti

import (
	"bytes"
	"errors"
	"testing"

	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/sim"
)

func testArchive(t testing.TB, blocks int) *Archive {
	t.Helper()
	return New(core.NewStore(device.New(device.QuietParams(blocks))))
}

func TestPutGetBlock(t *testing.T) {
	a := testArchive(t, 64)
	data := []byte("content-addressed block")
	s, err := a.PutBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.GetBlock(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("content mismatch")
	}
}

func TestPutBlockDedup(t *testing.T) {
	a := testArchive(t, 64)
	if _, err := a.PutBlock([]byte("same")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PutBlock([]byte("same")); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.BlocksWritten != 1 || st.BlocksDeduped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPutBlockOversize(t *testing.T) {
	a := testArchive(t, 64)
	if _, err := a.PutBlock(make([]byte, device.DataBytes+1)); err == nil {
		t.Fatal("oversize block accepted")
	}
}

func TestGetUnknownScore(t *testing.T) {
	a := testArchive(t, 64)
	if _, err := a.GetBlock(Score{1, 2, 3}); !errors.Is(err, ErrUnknownScore) {
		t.Fatalf("err %v", err)
	}
}

func TestStreamRoundTripSizes(t *testing.T) {
	a := testArchive(t, 4096)
	rng := sim.NewRNG(8)
	for _, size := range []int{0, 1, 511, 512, 513, 5000, 20 * device.DataBytes, 40*device.DataBytes + 7} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		root, err := a.WriteStream(data)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, err := a.ReadStream(root)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round-trip mismatch", size)
		}
	}
}

func TestStreamDeepTree(t *testing.T) {
	// More than FanOut² leaves forces a depth-3 tree.
	a := testArchive(t, 8192)
	rng := sim.NewRNG(9)
	data := make([]byte, (FanOut*FanOut+3)*device.DataBytes)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	root, err := a.WriteStream(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadStream(root)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("deep tree round trip: %v", err)
	}
}

func TestIdenticalStreamsShareBlocks(t *testing.T) {
	a := testArchive(t, 1024)
	data := bytes.Repeat([]byte("snapshot"), 1000)
	r1, err := a.WriteStream(data)
	if err != nil {
		t.Fatal(err)
	}
	written := a.Stats().BlocksWritten
	r2, err := a.WriteStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical streams got different roots")
	}
	if a.Stats().BlocksWritten != written {
		t.Fatal("identical stream rewrote blocks")
	}
}

func TestSnapshotVerifyClean(t *testing.T) {
	a := testArchive(t, 1024)
	root, err := a.WriteStream(bytes.Repeat([]byte("day-1 "), 500))
	if err != nil {
		t.Fatal(err)
	}
	li, err := a.Snapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if li.Blocks() != 2 {
		t.Fatalf("snapshot line %d blocks", li.Blocks())
	}
	rep, err := a.VerifySnapshot(root)
	if err != nil || !rep.OK {
		t.Fatalf("verify %+v %v", rep, err)
	}
	if len(a.Snapshots()) != 1 {
		t.Fatal("snapshot not recorded")
	}
}

func TestSnapshotDetectsLeafTamper(t *testing.T) {
	a := testArchive(t, 1024)
	data := bytes.Repeat([]byte("ledger-entry "), 300)
	root, err := a.WriteStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(root); err != nil {
		t.Fatal(err)
	}
	// Tamper with a stored node: pick any indexed block and forge a
	// valid frame with different content at its address.
	var victim Score
	for s := range a.index {
		victim = s
		break
	}
	pba := a.index[victim]
	if err := a.st.Device().(*device.Device).ForgeBlock(pba, []byte("forged content")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GetBlock(victim); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("leaf tamper not detected: %v", err)
	}
}

func TestVerifySnapshotDetectsAnchorTamper(t *testing.T) {
	a := testArchive(t, 1024)
	root, err := a.WriteStream(bytes.Repeat([]byte("x"), 3000))
	if err != nil {
		t.Fatal(err)
	}
	li, err := a.Snapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	// Forge the anchored root copy inside the heated line.
	if err := a.st.Device().(*device.Device).ForgeBlock(li.Start+1, []byte("bogus root")); err != nil {
		t.Fatal(err)
	}
	rep, err := a.VerifySnapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("anchor tamper not detected")
	}
}

func TestVerifyNotSnapshot(t *testing.T) {
	a := testArchive(t, 256)
	root, err := a.WriteStream([]byte("never anchored"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.VerifySnapshot(root); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("err %v", err)
	}
}

func TestPointerBlockRoundTrip(t *testing.T) {
	children := []Score{ScoreOf([]byte("a")), ScoreOf([]byte("b"))}
	blk := marshalPointer(3, 999, children)
	depth, total, got, err := parsePointer(blk)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 || total != 999 || len(got) != 2 || got[0] != children[0] || got[1] != children[1] {
		t.Fatalf("parsed %d %d %v", depth, total, got)
	}
}

func TestParsePointerRejectsGarbage(t *testing.T) {
	if _, _, _, err := parsePointer(make([]byte, device.DataBytes)); err == nil {
		t.Fatal("garbage pointer parsed")
	}
	if _, _, _, err := parsePointer([]byte("short")); err == nil {
		t.Fatal("short pointer parsed")
	}
}

func TestScoreString(t *testing.T) {
	s := ScoreOf([]byte("x"))
	if len(s.String()) != 16 {
		t.Fatalf("score string %q", s.String())
	}
}

func TestWriteStreamOutOfSpace(t *testing.T) {
	a := testArchive(t, 8) // tiny device
	rng := sim.NewRNG(55)
	data := make([]byte, 20*device.DataBytes)
	for i := range data {
		data[i] = byte(rng.Uint64()) // distinct blocks defeat dedup
	}
	if _, err := a.WriteStream(data); err == nil {
		t.Fatal("oversized stream stored on a tiny device")
	}
}

func TestSnapshotOutOfSpace(t *testing.T) {
	a := testArchive(t, 4)
	root, err := a.WriteStream([]byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the rest so the snapshot line cannot allocate.
	for i := 0; ; i++ {
		if _, err := a.PutBlock([]byte{byte(i)}); err != nil {
			break
		}
	}
	if _, err := a.Snapshot(root); err == nil {
		t.Fatal("snapshot allocated on a full device")
	}
}
