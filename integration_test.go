package sero

// Full-stack integration tests: each walks a realistic multi-layer
// scenario end to end (file system + device + medium + recovery),
// crossing package boundaries the unit tests keep separate.

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/device"
	"sero/internal/fossil"
	"sero/internal/retention"
	"sero/internal/sim"
	"sero/internal/venti"
)

func TestIntegrationFullLifecycle(t *testing.T) {
	// Life of one device: LFS workload → snapshots heated → insider
	// attack → audit catches it → image saved → reattached elsewhere →
	// evidence still verifiable.
	d := Open(Options{Blocks: 4096, Quiet: true})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}

	// Workload phase.
	var heatedNames []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc-%d", i)
		ino, cerr := fs.Create(name, uint8(i%2))
		if cerr != nil {
			t.Fatal(cerr)
		}
		if werr := fs.WriteFile(ino, bytes.Repeat([]byte{byte(i)}, 3*BlockSize)); werr != nil {
			t.Fatal(werr)
		}
		if i%2 == 0 {
			if _, herr := fs.HeatFile(name); herr != nil {
				t.Fatal(herr)
			}
			heatedNames = append(heatedNames, name)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Insider attack on one heated file.
	victim := heatedNames[1]
	vIno, _ := fs.Lookup(victim)
	st, _ := fs.Stat(vIno)
	target := st.HeatLines[0] + 2
	if err := d.Store().Device().(*device.Device).ForgeBlock(target, bytes.Repeat([]byte{0xEE}, BlockSize)); err != nil {
		t.Fatal(err)
	}

	// Audit finds exactly one tampered line.
	audit := d.Audit()
	if audit.TamperedLines != 1 {
		t.Fatalf("audit found %d tampered lines, want 1\n%s", audit.TamperedLines, audit.Summary())
	}

	// Save, reload (fresh host), re-audit: same verdict.
	img := d.SaveImage()
	d2, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	audit2 := d2.Audit()
	if audit2.TamperedLines != 1 {
		t.Fatalf("reloaded audit found %d tampered lines\n%s", audit2.TamperedLines, audit2.Summary())
	}
	if len(d2.Lines()) != len(d.Lines()) {
		t.Fatal("heated lines lost across image round trip")
	}

	// The untampered files still read correctly through a re-mounted
	// FS on the original device.
	fs2, err := MountFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if name == victim {
			continue
		}
		ino, lerr := fs2.Lookup(name)
		if lerr != nil {
			t.Fatal(lerr)
		}
		got, rerr := fs2.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 3*BlockSize)) {
			t.Fatalf("%s corrupted: %v", name, rerr)
		}
	}
}

func TestIntegrationArchivalPipeline(t *testing.T) {
	// Venti snapshots indexed by a fossilized index on one shared
	// store, with retention-managed expiry of old snapshots.
	d := Open(Options{Blocks: 16384, Quiet: true})
	arch := venti.New(d.Store())
	idx, err := fossil.New(d.Store())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)

	data := make([]byte, 40*BlockSize)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	var roots []venti.Score
	for day := 0; day < 4; day++ {
		off := rng.Intn(40) * BlockSize
		for j := 0; j < BlockSize; j++ {
			data[off+j] = byte(rng.Uint64())
		}
		root, werr := arch.WriteStream(data)
		if werr != nil {
			t.Fatal(werr)
		}
		li, serr := arch.Snapshot(root)
		if serr != nil {
			t.Fatal(serr)
		}
		if ierr := idx.Insert(fossil.KeyOf(root[:]), li.Start); ierr != nil {
			t.Fatal(ierr)
		}
		roots = append(roots, root)
	}

	// Every root resolves through the index to its anchor line and
	// verifies end to end.
	for _, root := range roots {
		lineStart, lerr := idx.Lookup(fossil.KeyOf(root[:]))
		if lerr != nil {
			t.Fatal(lerr)
		}
		rep, verr := d.Verify(lineStart)
		if verr != nil || !rep.OK {
			t.Fatalf("anchor at %d: %+v %v", lineStart, rep, verr)
		}
		vrep, verr := arch.VerifySnapshot(root)
		if verr != nil || !vrep.OK {
			t.Fatalf("snapshot %v: %v", root, verr)
		}
	}
}

func TestIntegrationRetentionOverFacade(t *testing.T) {
	d := Open(Options{Blocks: 1024, Quiet: true})
	mgr := retention.NewManager(d.Store(),
		retention.Policy{Class: "test", Period: 0},
	)
	blk := bytes.Repeat([]byte{9}, BlockSize)
	rec, err := mgr.Ingest("r1", "test", [][]byte{blk})
	if err != nil {
		t.Fatal(err)
	}
	// Period 0: immediately expired; shred through the facade-visible
	// machinery.
	if _, err := mgr.Shred("r1"); err != nil {
		t.Fatal(err)
	}
	ok, err := d.Store().Device().(*device.Device).IsShredded(rec.Line.Start)
	if err != nil || !ok {
		t.Fatalf("not shredded: %v %v", ok, err)
	}
	// Tombstone survives recovery.
	rep, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) != 1 {
		t.Fatalf("tombstone lost: %+v", rep)
	}
}

func TestIntegrationNoisyEndToEnd(t *testing.T) {
	// The full stack on the realistic noisy medium: ECC, erb retries
	// and verification must all hold up without the Quiet crutch.
	d := Open(Options{Blocks: 512, Seed: 2026})
	fs, err := NewFS(d, FSOptions{SegmentBlocks: 32, HeatAware: true})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create("noisy.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat([]byte("signal/noise "), 100)
	if err := fs.WriteFile(ino, content); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.HeatFile("noisy.dat"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("noisy read: %v", err)
	}
	reps, err := fs.VerifyFile("noisy.dat")
	if err != nil || !reps[0].OK {
		t.Fatalf("noisy verify: %v", err)
	}
	audit := d.Audit()
	if !audit.Clean() {
		t.Fatalf("noisy audit: %s", audit.Summary())
	}
}
