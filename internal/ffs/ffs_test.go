package ffs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sero/internal/device"
	"sero/internal/medium"
)

func testFS(t testing.TB, blocks int, aware bool) *FS {
	t.Helper()
	fs, err := New(device.New(device.QuietParams(blocks)), Params{GroupBlocks: 16, HeatAware: aware})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func payload(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*11)
	}
	return b
}

func TestCreateWriteRead(t *testing.T) {
	fs := testFS(t, 256, true)
	if err := fs.Create("a", 0); err != nil {
		t.Fatal(err)
	}
	data := payload(1, 3*device.DataBytes+17)
	if err := fs.WriteFile("a", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestWriteInPlaceKeepsBlocks(t *testing.T) {
	// Defining FFS property: a rewrite of the same size reuses the
	// same physical blocks (no log).
	fs := testFS(t, 256, true)
	if err := fs.Create("f", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", payload(1, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), fs.files["f"].inode.Blocks...)
	if err := fs.WriteFile("f", payload(9, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	after := fs.files["f"].inode.Blocks
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rewrite moved blocks — not update-in-place")
		}
	}
}

func TestShrinkAndGrow(t *testing.T) {
	fs := testFS(t, 256, true)
	if err := fs.Create("f", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", payload(1, 5*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", payload(2, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f")
	if err != nil || len(got) != device.DataBytes {
		t.Fatalf("shrink: %d bytes %v", len(got), err)
	}
	if fs.Stats().BlocksFreed != 4 {
		t.Fatalf("freed %d", fs.Stats().BlocksFreed)
	}
}

func TestDeleteFrees(t *testing.T) {
	fs := testFS(t, 256, true)
	if err := fs.Create("gone", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("gone", payload(1, 4*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, g := range fs.Groups() {
		live += g.LiveBlocks
	}
	if live != 0 {
		t.Fatalf("live after delete %d", live)
	}
	if err := fs.Delete("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestFilesClusterInHomeGroup(t *testing.T) {
	fs := testFS(t, 512, true)
	if err := fs.Create("f", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", payload(1, 6*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	home := fs.files["f"].groupID
	for _, pba := range fs.files["f"].inode.Blocks {
		if int(pba)/fs.p.GroupBlocks != home {
			t.Fatal("file blocks scattered outside home group")
		}
	}
}

func TestHeatVerifyAndFreeze(t *testing.T) {
	fs := testFS(t, 512, true)
	if err := fs.Create("ev", 1); err != nil {
		t.Fatal(err)
	}
	data := payload(3, 3*device.DataBytes)
	if err := fs.WriteFile("ev", data); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("ev")
	if err != nil {
		t.Fatal(err)
	}
	if res.Line.Blocks() != 8 { // hash+inode+3 data -> 8
		t.Fatalf("line %d blocks", res.Line.Blocks())
	}
	got, err := fs.ReadFile("ev")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after heat: %v", err)
	}
	rep, err := fs.VerifyFile("ev")
	if err != nil || !rep.OK {
		t.Fatalf("verify: %+v %v", rep, err)
	}
	if err := fs.WriteFile("ev", data); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("write to heated: %v", err)
	}
	if err := fs.Delete("ev"); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("delete heated: %v", err)
	}
	if _, err := fs.HeatFile("ev"); !errors.Is(err, ErrFileHeated) {
		t.Fatalf("double heat: %v", err)
	}
}

func TestHeatDetectsTamper(t *testing.T) {
	fs := testFS(t, 512, true)
	if err := fs.Create("v", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("v", payload(5, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("v")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Device().ForgeBlock(res.Line.Start+2, payload(0xAA, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.VerifyFile("v")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("tamper not detected")
	}
}

func buildMixed(t *testing.T, aware bool) *FS {
	t.Helper()
	// 32-block groups: a whole 8-file working set packs into one group
	// with room left for an 8-block line beside it — the regime where
	// oblivious placement welds read-only lines into live groups.
	fs, err := New(device.New(device.QuietParams(1024)), Params{GroupBlocks: 32, HeatAware: aware})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := fs.Create(name, 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(name, payload(byte(i), 3*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i += 2 {
		if _, err := fs.HeatFile(fmt.Sprintf("f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestAwareBimodalityPerfect(t *testing.T) {
	fs := buildMixed(t, true)
	if b := fs.Bimodality(); b != 1 {
		t.Fatalf("aware bimodality %g", b)
	}
	// Heat groups hold no live data; data groups hold no heat.
	for _, g := range fs.Groups() {
		if g.HeatGroup && g.LiveBlocks > 0 {
			t.Fatalf("heat group %d holds live data", g.ID)
		}
		if !g.HeatGroup && g.HeatedBlocks > 0 {
			t.Fatalf("data group %d holds heated lines", g.ID)
		}
	}
}

func TestObliviousMixesGroups(t *testing.T) {
	fs := buildMixed(t, false)
	if b := fs.Bimodality(); b >= 1 {
		t.Fatalf("oblivious bimodality %g, expected < 1", b)
	}
	mixed := 0
	for _, g := range fs.Groups() {
		if g.HeatedBlocks > 0 && g.LiveBlocks > 0 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no mixed groups under oblivious placement — ablation vacuous")
	}
}

func TestObliviousFragmentsWorse(t *testing.T) {
	aware := buildMixed(t, true)
	obl := buildMixed(t, false)
	if obl.FragmentationIndex() <= aware.FragmentationIndex() {
		t.Fatalf("oblivious fragmentation %g not worse than aware %g",
			obl.FragmentationIndex(), aware.FragmentationIndex())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	dp := device.DefaultParams(64)
	mp := medium.DefaultParams(64, device.DotsPerBlock)
	mp.ReadNoiseSigma = 0
	dp.Medium = mp
	dev := device.New(dp)
	if _, err := New(dev, Params{GroupBlocks: 48}); err == nil {
		t.Fatal("non-power-of-two group accepted")
	}
	if _, err := New(dev, Params{GroupBlocks: 64}); err == nil {
		t.Fatal("single-group device accepted")
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := testFS(t, 256, true)
	if err := fs.Create("x", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("x", 0); !errors.Is(err, ErrExists) {
		t.Fatalf("err %v", err)
	}
	if err := fs.Create("", 0); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestUnknownFileOps(t *testing.T) {
	fs := testFS(t, 256, true)
	if err := fs.WriteFile("ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if _, err := fs.VerifyFile("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}
