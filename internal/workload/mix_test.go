package workload

import (
	"testing"

	"sero/internal/lfs"
	"sero/internal/sim"
)

// TestGeneratorValidation: every generator rejects nonsensical
// parameters with a diagnostic panic instead of emitting a malformed
// stream.
func TestGeneratorValidation(t *testing.T) {
	bad := map[string]func(){
		"snapshot-tables":   func() { Snapshot{Tables: 0, TableBlocks: 2, Updates: 1}.Generate(sim.NewRNG(1)) },
		"snapshot-blocks":   func() { Snapshot{Tables: 2, TableBlocks: 0, Updates: 1}.Generate(sim.NewRNG(1)) },
		"snapshot-updates":  func() { Snapshot{Tables: 2, TableBlocks: 2, Updates: -1}.Generate(sim.NewRNG(1)) },
		"mix-files":         func() { Mix{FileBlocks: 1, ReadW: 1}.Generate(sim.NewRNG(1)) },
		"mix-weights":       func() { Mix{Files: 4, FileBlocks: 1}.Generate(sim.NewRNG(1)) },
		"mix-neg-weight":    func() { Mix{Files: 4, FileBlocks: 1, ReadW: 1, DeleteW: -1}.Generate(sim.NewRNG(1)) },
		"mix-zipf-diverges": func() { Mix{Files: 4, FileBlocks: 1, ReadW: 1, ZipfTheta: 1}.Generate(sim.NewRNG(1)) },
		"zipf-n":            func() { NewZipfian(0, 0.5) },
		"zipf-theta":        func() { NewZipfian(10, 1.0) },
	}
	for name, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestZipfianSkew: the sampler concentrates mass on low indices at
// high theta and stays within range; theta 0 is uniform.
func TestZipfianSkew(t *testing.T) {
	const n, draws = 100, 20000
	rng := sim.NewRNG(3)
	z := NewZipfian(n, 0.9)
	var top10 int
	for i := 0; i < draws; i++ {
		idx := z.Next(rng)
		if idx < 0 || idx >= n {
			t.Fatalf("index %d out of range", idx)
		}
		if idx < 10 {
			top10++
		}
	}
	if frac := float64(top10) / draws; frac < 0.5 {
		t.Fatalf("zipf(0.9): top-10%% of files got %.2f of accesses, want > 0.5", frac)
	}
	u := NewZipfian(n, 0)
	var top10u int
	for i := 0; i < draws; i++ {
		if u.Next(rng) < 10 {
			top10u++
		}
	}
	if frac := float64(top10u) / draws; frac < 0.05 || frac > 0.2 {
		t.Fatalf("zipf(0): top-10%% of files got %.2f of accesses, want ≈ 0.1", frac)
	}
}

// TestMixGenerateShape: the mix emits every op kind, keeps the
// population alive, and burst phases suppress interleaved syncs.
func TestMixGenerateShape(t *testing.T) {
	w := DefaultMix(64, 2000)
	ops := w.Generate(sim.NewRNG(5))
	counts := map[OpKind]int{}
	for _, op := range ops {
		counts[op.Kind]++
	}
	for _, k := range []OpKind{OpCreate, OpWrite, OpRead, OpRename, OpDelete, OpSync} {
		if counts[k] == 0 {
			t.Errorf("mix stream has no %v ops", k)
		}
	}
	if counts[OpHeat] != 0 {
		t.Errorf("mix stream emitted %d heat ops", counts[OpHeat])
	}
	if ops[len(ops)-1].Kind != OpSync {
		t.Error("stream does not end with a sync")
	}
}

// TestGeneratorsApplicableByConstruction: Apply succeeds on a fresh FS
// for a grid of parameters of every generator — the property the
// serving tier relies on.
func TestGeneratorsApplicableByConstruction(t *testing.T) {
	type gen struct {
		name   string
		blocks int
		g      interface {
			Generate(*sim.RNG) []Op
		}
	}
	grid := []gen{
		{"snapshot", 8192, Snapshot{Tables: 3, TableBlocks: 2, Updates: 40, SnapshotEvery: 20, Affinity: 1}},
	}
	for _, files := range []int{1, 16, 64} {
		for _, theta := range []float64{0, 0.9} {
			m := DefaultMix(files, 300)
			m.ZipfTheta = theta
			m.SyncEvery = 16
			grid = append(grid, gen{"mix", 16384, m})
		}
	}
	for i, tc := range grid {
		seed := uint64(100 + i)
		ops := tc.g.Generate(sim.NewRNG(seed))
		fs := testFS(t, tc.blocks)
		applied, err := Apply(fs, ops)
		if err != nil {
			t.Fatalf("%s[%d]: applied %d/%d: %v", tc.name, i, applied, len(ops), err)
		}
		if applied != len(ops) {
			t.Fatalf("%s[%d]: applied %d of %d", tc.name, i, applied, len(ops))
		}
	}
}

// TestMixSessionDeterminism: two sessions with the same seed and
// config produce identical streams, op for op and byte for byte.
func TestMixSessionDeterminism(t *testing.T) {
	w := DefaultMix(32, 500)
	w.Prefix = "s00"
	a := w.Generate(sim.NewRNG(42))
	b := w.Generate(sim.NewRNG(42))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Name != b[i].Name || a[i].NewName != b[i].NewName ||
			a[i].Offset != b[i].Offset || a[i].Length != b[i].Length ||
			string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Distinct prefixes shard the namespace: same shape, disjoint names.
	w2 := w
	w2.Prefix = "s01"
	c := w2.Generate(sim.NewRNG(42))
	if len(c) != len(a) {
		t.Fatalf("sharded stream length differs: %d vs %d", len(c), len(a))
	}
	for i := range a {
		if a[i].Kind != c[i].Kind {
			t.Fatalf("op %d kind differs across shards", i)
		}
		if a[i].Name != "" && a[i].Name == c[i].Name {
			t.Fatalf("op %d: shards share name %q", i, a[i].Name)
		}
	}
}

// TestApplyMixedStream drives Apply's read and rename paths directly.
func TestApplyReadRename(t *testing.T) {
	fs := testFS(t, 4096)
	ops := []Op{
		{Kind: OpCreate, Name: "a"},
		{Kind: OpWrite, Name: "a", Data: make([]byte, 512)},
		{Kind: OpSync},
		{Kind: OpRead, Name: "a", Length: 512},
		{Kind: OpRename, Name: "a", NewName: "b"},
		{Kind: OpRead, Name: "b"},
		{Kind: OpWrite, Name: "b", Offset: 512, Data: make([]byte, 512)},
		{Kind: OpSync},
	}
	if applied, err := Apply(fs, ops); err != nil || applied != len(ops) {
		t.Fatalf("applied %d: %v", applied, err)
	}
	if _, err := fs.Lookup("a"); err == nil {
		t.Fatal("old name still resolves after rename")
	}
	ino, err := fs.Lookup("b")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := fs.Stat(ino); st.Size != 1024 {
		t.Fatalf("size %d after rename+append, want 1024", st.Size)
	}
}

// TestApplyWrapsErrors: failures carry the op kind and file name.
func TestApplyWrapsErrors(t *testing.T) {
	fs := testFS(t, 4096)
	for _, tc := range []struct {
		op   Op
		want string
	}{
		{Op{Kind: OpWrite, Name: "ghost", Data: make([]byte, 8)}, "write ghost"},
		{Op{Kind: OpRead, Name: "ghost"}, "read ghost"},
		{Op{Kind: OpRename, Name: "ghost", NewName: "x"}, "rename ghost"},
		{Op{Kind: OpDelete, Name: "ghost"}, "delete ghost"},
		{Op{Kind: OpHeat, Name: "ghost"}, "heat ghost"},
	} {
		_, err := Apply(fs, []Op{tc.op})
		if err == nil {
			t.Fatalf("%v: expected error", tc.op.Kind)
		}
		if !contains(err.Error(), "workload: ") || !contains(err.Error(), tc.want) {
			t.Errorf("%v error %q does not name the op and file", tc.op.Kind, err)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMaxFileBlocksGuard keeps Mix streams within the FS's direct-
// pointer limit so "applicable by construction" cannot silently break.
func TestMixRespectsMaxFileBlocks(t *testing.T) {
	if DefaultMix(1, 1).FileBlocks > lfs.MaxFileBlocks {
		t.Fatal("DefaultMix file size exceeds lfs.MaxFileBlocks")
	}
}

// TestSessionSeedsDistinct guards the per-session RNG streams: shards
// must not replay each other's randomness.
func TestSessionSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		s := SessionSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at session %d", i)
		}
		seen[s] = true
	}
}
