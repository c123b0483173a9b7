package workload

import (
	"testing"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/sim"
)

func testFS(t testing.TB, blocks int) *lfs.FS {
	t.Helper()
	dp := device.DefaultParams(blocks)
	mp := medium.DefaultParams(blocks, device.DotsPerBlock)
	mp.ReadNoiseSigma = 0
	mp.ResidualInPlaneSignal = 0
	mp.ThermalCrosstalk = 0
	dp.Medium = mp
	p := lfs.Params{SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: true, ReserveSegments: 2}
	fs, err := lfs.New(device.New(dp), p)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestApplySnapshotHeats(t *testing.T) {
	fs := testFS(t, 8192)
	w := Snapshot{Tables: 2, TableBlocks: 3, Updates: 60, SnapshotEvery: 30, Affinity: 1}
	ops := w.Generate(sim.NewRNG(4))
	if _, err := Apply(fs, ops); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().HeatedFiles != 4 { // 2 snapshots × 2 tables
		t.Fatalf("heated files %d", fs.Stats().HeatedFiles)
	}
	// Every snapshot file verifies clean.
	for _, name := range fs.Names() {
		ino, _ := fs.Lookup(name)
		st, err := fs.Stat(ino)
		if err != nil {
			t.Fatal(err)
		}
		if st.Heated() {
			reps, err := fs.VerifyFile(name)
			if err != nil || !reps[0].OK {
				t.Fatalf("snapshot %s: %v", name, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := Snapshot{Tables: 4, TableBlocks: 6, Updates: 50, SnapshotEvery: 20, Affinity: 1}
	a := w.Generate(sim.NewRNG(7))
	b := w.Generate(sim.NewRNG(7))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name || a[i].Offset != b[i].Offset {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpCreate: "create", OpWrite: "write", OpDelete: "delete",
		OpHeat: "heat", OpSync: "sync",
	} {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { Snapshot{}.Generate(sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
