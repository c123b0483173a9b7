package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"sero/internal/device"
	"sero/internal/trace"
)

// TestConcurrentFSStress hammers one FS from 16 goroutines with the
// full operation mix — create, append, overwrite, read, heat, clean,
// sync and metadata queries — and then verifies every file's content.
// Run under -race this is the write-path concurrency contract: reads
// take the metadata lock shared, appends buffer in memory, and the
// group-commit/cleaner machinery must never tear any of it.
func TestConcurrentFSStress(t *testing.T) {
	const (
		workers      = 16
		filesPerG    = 3
		roundsPerG   = 12
		maxFileBlk   = 4
		deviceBlocks = 8192
	)
	p := Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 32,
		WritebackBlocks:  32,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	fs := testFS(t, deviceBlocks, p)

	type fileState struct {
		name   string
		ino    Ino
		want   []byte
		heated bool
	}
	finals := make([][]fileState, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			files := make([]fileState, filesPerG)
			for i := range files {
				name := fmt.Sprintf("g%02d-f%d", g, i)
				ino, err := fs.Create(name, uint8(g%4))
				if err != nil {
					t.Errorf("g%d create %s: %v", g, name, err)
					return
				}
				files[i] = fileState{name: name, ino: ino}
			}
			for round := 0; round < roundsPerG; round++ {
				f := &files[rng.Intn(filesPerG)]
				switch op := rng.Intn(10); {
				case op < 4: // write fresh content
					if f.heated {
						continue
					}
					data := payload(byte(g*16+round), (1+rng.Intn(maxFileBlk))*device.DataBytes)
					if err := fs.WriteFile(f.ino, data); err != nil {
						t.Errorf("g%d write %s: %v", g, f.name, err)
						return
					}
					if len(data) > len(f.want) {
						f.want = append([]byte(nil), data...)
					} else {
						copy(f.want, data)
					}
				case op < 7: // read any of this goroutine's files back
					got, err := fs.ReadFile(f.ino)
					if err != nil {
						t.Errorf("g%d read %s: %v", g, f.name, err)
						return
					}
					if !bytes.Equal(got, f.want) {
						t.Errorf("g%d read %s: torn content (%d vs %d bytes)",
							g, f.name, len(got), len(f.want))
						return
					}
				case op < 8: // metadata traffic
					_ = fs.Names()
					_ = fs.Segments()
					_ = fs.FreeSegments()
					_ = fs.Bimodality()
					if _, err := fs.Lookup(f.name); err != nil {
						t.Errorf("g%d lookup %s: %v", g, f.name, err)
						return
					}
				case op < 9: // sync and occasionally clean
					if err := fs.Sync(); err != nil {
						t.Errorf("g%d sync: %v", g, err)
						return
					}
					if rng.Intn(2) == 0 {
						fs.Clean(fs.FreeSegments() + 1)
					}
				default: // heat one still-mutable file
					if f.heated || len(f.want) == 0 {
						continue
					}
					if _, err := fs.HeatFile(f.name); err != nil {
						t.Errorf("g%d heat %s: %v", g, f.name, err)
						return
					}
					f.heated = true
				}
			}
			finals[g] = files
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for g, files := range finals {
		for _, f := range files {
			got, err := fs.ReadFile(f.ino)
			if err != nil {
				t.Fatalf("g%d final read %s: %v", g, f.name, err)
			}
			if !bytes.Equal(got, f.want) {
				t.Fatalf("g%d final read %s: content lost", g, f.name)
			}
			if f.heated {
				reps, err := fs.VerifyFile(f.name)
				if err != nil || len(reps) == 0 || !reps[0].OK {
					t.Fatalf("g%d heated file %s fails verify: %v", g, f.name, err)
				}
			}
		}
	}
}

// TestConcurrentFSStressCrashRecovery is the roll-forward variant of
// the stress test: 16 goroutines hammer an FS whose syncs ride the
// summary tail (checkpoints far apart), with renames in the mix, and
// the final state is then recovered through a replayed Mount — the
// journal and replay machinery under the race detector.
func TestConcurrentFSStressCrashRecovery(t *testing.T) {
	const (
		workers    = 16
		filesPerG  = 2
		roundsPerG = 10
	)
	p := Params{
		SegmentBlocks:    32,
		CheckpointBlocks: 32,
		WritebackBlocks:  32,
		CheckpointEvery:  1 << 20, // everything after the first sync journals
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	fs := testFS(t, 8192, p)
	if err := fs.Sync(); err != nil { // anchoring checkpoint
		t.Fatal(err)
	}

	type fileState struct {
		name string
		ino  Ino
		want []byte
	}
	finals := make([][]fileState, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + g)))
			files := make([]fileState, filesPerG)
			for i := range files {
				name := fmt.Sprintf("j%02d-f%d", g, i)
				ino, err := fs.Create(name, uint8(g%4))
				if err != nil {
					t.Errorf("g%d create %s: %v", g, name, err)
					return
				}
				files[i] = fileState{name: name, ino: ino}
			}
			for round := 0; round < roundsPerG; round++ {
				f := &files[rng.Intn(filesPerG)]
				switch op := rng.Intn(10); {
				case op < 5: // write
					data := payload(byte(g*16+round), (1+rng.Intn(3))*device.DataBytes)
					if err := fs.WriteFile(f.ino, data); err != nil {
						t.Errorf("g%d write %s: %v", g, f.name, err)
						return
					}
					if len(data) > len(f.want) {
						f.want = append([]byte(nil), data...)
					} else {
						copy(f.want, data)
					}
				case op < 7: // sync (journal record)
					if err := fs.Sync(); err != nil {
						t.Errorf("g%d sync: %v", g, err)
						return
					}
				case op < 8: // rename within this goroutine's namespace
					newName := fmt.Sprintf("j%02d-r%d", g, round)
					if err := fs.Rename(f.name, newName); err != nil {
						t.Errorf("g%d rename %s: %v", g, f.name, err)
						return
					}
					f.name = newName
				default: // read back
					got, err := fs.ReadFile(f.ino)
					if err != nil || !bytes.Equal(got, f.want) {
						t.Errorf("g%d read %s: torn content (%v)", g, f.name, err)
						return
					}
				}
			}
			finals[g] = files
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.JournalRecords == 0 {
		t.Fatalf("stress ran without journal records: %+v", st)
	}
	// Crash-recover: everything above must come back through replay.
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	for g, files := range finals {
		for _, f := range files {
			ino, err := fs2.Lookup(f.name)
			if err != nil || ino != f.ino {
				t.Fatalf("g%d file %s lost in replay: %v", g, f.name, err)
			}
			got, err := fs2.ReadFile(ino)
			if err != nil || !bytes.Equal(got, f.want) {
				t.Fatalf("g%d file %s content lost in replay: %v", g, f.name, err)
			}
		}
	}
}

// buildFragmentedFS fills a fresh FS with files and then invalidates
// half of every file's blocks, producing a victim population at ~50 %
// utilisation in 32-block segments. Identical inputs produce identical
// state.
func buildFragmentedFS(t testing.TB, conc int) *FS {
	return buildFragmentedFSSeg(t, conc, 32)
}

// buildFragmentedFSSeg is buildFragmentedFS with segments of segBlocks
// blocks: at 128, the oldest segment alone holds more than 48 live
// data blocks, enough for a one-victim round to fan over four planes.
func buildFragmentedFSSeg(t testing.TB, conc, segBlocks int) *FS {
	p := Params{
		SegmentBlocks:    segBlocks,
		CheckpointBlocks: 32,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      conc,
	}
	fs := testFS(t, 4096, p)
	inos := make([]Ino, 24)
	var err error
	for i := range inos {
		if inos[i], err = fs.Create(fmt.Sprintf("f%02d", i), 0); err != nil {
			t.Fatal(err)
		}
		if err = fs.WriteFile(inos[i], payload(byte(i), 8*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err = fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, ino := range inos {
		if err = fs.WriteFile(ino, payload(byte(100+i), 4*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err = fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// fragWant is the expected content of file i in a buildFragmentedFS
// population: the 4-block overwrite followed by the surviving tail of
// the original 8-block write.
func fragWant(i int) []byte {
	want := append([]byte(nil), payload(byte(100+i), 4*device.DataBytes)...)
	return append(want, payload(byte(i), 8*device.DataBytes)[4*device.DataBytes:]...)
}

// TestParallelCleanerMatchesSerialLayout is the fan-out contract: on a
// quiet medium a Concurrency=4 cleaning pass must produce exactly the
// post-clean state of the serial pass — same segment table, same block
// pointers, same readable contents — while costing at most the serial
// pass's virtual time (slowest worker, not sum). A one-victim inline
// pass, the cleaner's common shape under churn, must fan too: its
// moves split into per-plane shares, so Concurrency 4 costs at most
// half of Concurrency 1, and Workers reports the planes used.
func TestParallelCleanerMatchesSerialLayout(t *testing.T) {
	serial := buildFragmentedFS(t, 1)
	parallel := buildFragmentedFS(t, 4)

	target := serial.FreeSegments() + 4
	t0 := serial.Device().Clock().Now()
	csS := serial.Clean(target)
	serialCost := serial.Device().Clock().Now() - t0

	t0 = parallel.Device().Clock().Now()
	csP := parallel.Clean(target)
	parallelCost := parallel.Device().Clock().Now() - t0

	if csS.SegmentsCleaned == 0 {
		t.Fatalf("serial cleaner reclaimed nothing: %+v", csS)
	}
	if csS.SegmentsCleaned != csP.SegmentsCleaned || csS.BlocksCopied != csP.BlocksCopied {
		t.Fatalf("pass stats diverge: serial %+v parallel %+v", csS, csP)
	}
	if csP.Workers != 4 {
		t.Fatalf("parallel pass ran at %d workers", csP.Workers)
	}

	segsS, segsP := serial.Segments(), parallel.Segments()
	if len(segsS) != len(segsP) {
		t.Fatalf("segment table sizes diverge")
	}
	for i := range segsS {
		if segsS[i] != segsP[i] {
			t.Fatalf("segment %d diverges: serial %+v parallel %+v", i, segsS[i], segsP[i])
		}
	}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("f%02d", i)
		inoS, _ := serial.Lookup(name)
		inoP, _ := parallel.Lookup(name)
		stS, err := serial.Stat(inoS)
		if err != nil {
			t.Fatal(err)
		}
		stP, err := parallel.Stat(inoP)
		if err != nil {
			t.Fatal(err)
		}
		if len(stS.Blocks) != len(stP.Blocks) {
			t.Fatalf("%s: block counts diverge", name)
		}
		for j := range stS.Blocks {
			if stS.Blocks[j] != stP.Blocks[j] {
				t.Fatalf("%s block %d: serial at %d, parallel at %d",
					name, j, stS.Blocks[j], stP.Blocks[j])
			}
		}
		got, err := parallel.ReadFile(inoP)
		if err != nil || !bytes.Equal(got, fragWant(i)) {
			t.Fatalf("%s corrupted by parallel clean: %v", name, err)
		}
	}

	if parallelCost > serialCost {
		t.Fatalf("parallel pass cost %v, serial %v — fan-out made it slower", parallelCost, serialCost)
	}
	if parallelCost >= serialCost*3/4 {
		t.Fatalf("parallel pass cost %v vs serial %v — no real fan-out win", parallelCost, serialCost)
	}

	// One victim, cleaned inline: its 56 data moves fan over one plane
	// per started 16 of them, up to Concurrency — so over 4 planes at
	// most, even at Concurrency 8.
	var ref *FS
	var refCost time.Duration
	for _, conc := range []int{1, 2, 4, 8} {
		fs := buildFragmentedFSSeg(t, conc, 128)
		fs.mu.Lock()
		t0 := fs.now()
		cs := fs.cleanLocked(fs.sm.reclaimable() + 1)
		cost := fs.now() - t0
		fs.mu.Unlock()
		if planes := min(conc, 4); cs.SegmentsCleaned != 1 || cs.Workers != planes {
			t.Fatalf("Concurrency %d: one-victim inline pass %+v, want 1 segment cleaned on %d planes", conc, cs, planes)
		}
		for i := 0; i < 24; i++ {
			ino, _ := fs.Lookup(fmt.Sprintf("f%02d", i))
			got, err := fs.ReadFile(ino)
			if err != nil || !bytes.Equal(got, fragWant(i)) {
				t.Fatalf("Concurrency %d: f%02d corrupted by the one-victim pass: %v", conc, i, err)
			}
		}
		if ref == nil {
			ref, refCost = fs, cost
			continue
		}
		if !slices.Equal(fs.Segments(), ref.Segments()) {
			t.Fatalf("Concurrency %d: one-victim segment table diverges from Concurrency 1", conc)
		}
		if conc == 4 && cost > refCost/2 {
			t.Fatalf("one-victim pass cost %v at Concurrency 4, %v at 1: want at most half", cost, refCost)
		}
	}
}

// TestWritebackBatchingBeatsBlockAtATime is the group-commit half of
// the acceptance criterion: whole-segment write-back must cost at
// most half the virtual time per appended block of the block-at-a-time
// path, with byte-identical results.
func TestWritebackBatchingBeatsBlockAtATime(t *testing.T) {
	appendCost := func(wb int) (costPerBlock int64, fs *FS) {
		p := smallParams()
		p.WritebackBlocks = wb
		fs = testFS(t, 2048, p)
		ino, err := fs.Create("stream", 0)
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 48
		start := fs.Device().Clock().Now()
		for i := 0; i < blocks; i += 16 {
			if err := fs.WriteFile(ino, payload(9, 16*device.DataBytes)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return int64(fs.Device().Clock().Now()-start) / blocks, fs
	}
	serialCost, fsSerial := appendCost(1)
	batchedCost, fsBatched := appendCost(0) // 0 = whole-segment commits
	if batchedCost*2 > serialCost {
		t.Fatalf("batched append %dns/block not ≤ half of serial %dns/block",
			batchedCost, serialCost)
	}
	inoS, _ := fsSerial.Lookup("stream")
	inoB, _ := fsBatched.Lookup("stream")
	gotS, err := fsSerial.ReadFile(inoS)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := fsBatched.ReadFile(inoB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotS, gotB) {
		t.Fatal("write-back granularity changed file contents")
	}
}

// TestWritebackSurvivesMount ensures the group-commit buffer cannot
// ack data the checkpoint does not cover: everything readable after
// Sync is readable after Mount, for every write-back granularity.
func TestWritebackSurvivesMount(t *testing.T) {
	for _, wb := range []int{1, 4, 0} {
		p := smallParams()
		p.WritebackBlocks = wb
		fs := testFS(t, 1024, p)
		ino, err := fs.Create("wb", 0)
		if err != nil {
			t.Fatal(err)
		}
		want := payload(byte(40+wb), 5*device.DataBytes)
		if err := fs.WriteFile(ino, want); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		fs2, err := Mount(fs.Device(), fs.Params())
		if err != nil {
			t.Fatalf("wb=%d: %v", wb, err)
		}
		got, err := fs2.ReadFile(ino)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("wb=%d: synced data lost across mount: %v", wb, err)
		}
	}
}

// TestCleanUnreachableTargetTerminates pins the net-progress guard:
// a target beyond what live data permits must stop, not thrash on the
// cleaner's own inode churn forever.
func TestCleanUnreachableTargetTerminates(t *testing.T) {
	fs := buildFragmentedFS(t, 2)
	total := len(fs.Segments())
	cs := fs.Clean(total + 100) // impossible
	if cs.SegmentsCleaned == 0 {
		t.Fatalf("cleaner reclaimed nothing: %+v", cs)
	}
	// Files intact afterwards.
	for i := 0; i < 24; i++ {
		ino, err := fs.Lookup(fmt.Sprintf("f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		got, rerr := fs.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, fragWant(i)) {
			t.Fatalf("file %d corrupted: %v", i, rerr)
		}
	}
}

// TestSyncUnwedgesGatedSegments pins the SegFreeing recovery path: a
// write-heavy loop near capacity relies on append-triggered cleaning,
// whose freed segments stay gated until a checkpoint. Sync must
// release them (it starts at rest, so checkpointing is safe) instead
// of wedging into permanent ErrFull with reclaimable space idle.
func TestSyncUnwedgesGatedSegments(t *testing.T) {
	p := Params{SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: true, ReserveSegments: 2}
	fs := testFS(t, 1024, p) // 31 log segments; the churn needs ~17 live
	inos := make([]Ino, 16)
	var err error
	for i := range inos {
		if inos[i], err = fs.Create(fmt.Sprintf("w%02d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 12; round++ {
		for i, ino := range inos {
			if err := fs.WriteFile(ino, payload(byte(round*i), 8*device.DataBytes)); err != nil {
				t.Fatalf("round %d write: %v (free=%d)", round, err, fs.FreeSegments())
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("round %d sync: %v (free=%d)", round, err, fs.FreeSegments())
		}
	}
	for i, ino := range inos {
		got, rerr := fs.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, payload(byte(11*i), 8*device.DataBytes)) {
			t.Fatalf("file %d corrupted after churn: %v", i, rerr)
		}
	}
}

// TestInlineCleanInRotationKeepsBufferedBlocks fills a heat-oblivious
// FS to ErrFull after churn, so a segment rotation runs the inline
// cleaner, whose inode rewrites rotate the same (single) appender
// again and buffer themselves there. The outer rotation must keep that
// appender rather than open another segment over it: the rewrites
// would otherwise never reach the medium, and the mount would meet
// inode pointers to unwritten blocks. Every acked file must read back.
func TestInlineCleanInRotationKeepsBufferedBlocks(t *testing.T) {
	for _, conc := range []int{1, 4} {
		p := Params{
			SegmentBlocks:    16,
			CheckpointBlocks: 64,
			WritebackBlocks:  4,
			CheckpointEvery:  96,
			ReserveSegments:  2,
			Concurrency:      conc,
		}
		dev := quietDev(1024)
		fs, err := New(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string][]byte)
		acked := make(map[string][]byte)
		ack := func() error {
			err := fs.Sync()
			if err == nil {
				clear(acked)
				maps.Copy(acked, model)
			}
			return err
		}
		inos := make([]Ino, 12)
		for i := range inos {
			if inos[i], err = fs.Create(fmt.Sprintf("f%02d", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 20; round++ {
			for i, ino := range inos {
				data := payload(byte(round+i), (1+(round+i)%4)*device.DataBytes)
				if err := fs.WriteFile(ino, data); err != nil {
					t.Fatal(err)
				}
				// WriteFile overwrites from offset 0 and never truncates.
				name := fmt.Sprintf("f%02d", i)
				model[name] = append(data, model[name][min(len(data), len(model[name])):]...)
			}
			if err := ack(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; ; i++ {
			name := fmt.Sprintf("g%03d", i)
			ino, err := fs.Create(name, 0)
			if err == nil {
				data := payload(byte(i), 4*device.DataBytes)
				if err = fs.WriteFile(ino, data); err == nil {
					model[name] = data
					err = ack()
				}
			}
			if errors.Is(err, ErrFull) {
				break
			}
			if err != nil {
				t.Fatalf("conc %d fill %d: %v", conc, i, err)
			}
		}
		if fs.Stats().CleanerPasses == 0 {
			t.Fatalf("conc %d: the fill never cleaned inline", conc)
		}
		m, err := Mount(dev, p)
		if err != nil {
			t.Fatalf("conc %d: mount after the fill: %v", conc, err)
		}
		for name, want := range acked {
			ino, err := m.Lookup(name)
			if err != nil {
				t.Fatalf("conc %d: acked %s: %v", conc, name, err)
			}
			if got, err := m.ReadFile(ino); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("conc %d: acked %s does not read back: %v", conc, name, err)
			}
		}
	}
}

// TestCheckpointValidation pins the independent checkpoint sizing:
// non-power-of-two and negative values are refused with clear errors,
// and an independent (larger) region round-trips through Mount.
func TestCheckpointValidation(t *testing.T) {
	dp := device.DefaultParams(2048)
	dev := device.New(dp)
	if _, err := New(dev, Params{SegmentBlocks: 16, CheckpointBlocks: 48, ReserveSegments: 1}); err == nil {
		t.Fatal("non-power-of-two checkpoint accepted")
	}
	if _, err := New(dev, Params{SegmentBlocks: 16, CheckpointBlocks: -16, ReserveSegments: 1}); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
	p := smallParams()
	p.CheckpointBlocks = 64 // independent of the 16-block segments
	fs := testFS(t, 1024, p)
	if fs.Params().CheckpointBlocks != 64 {
		t.Fatalf("checkpoint region %d, want 64", fs.Params().CheckpointBlocks)
	}
	ino, _ := fs.Create("x", 0)
	want := payload(3, 2*device.DataBytes)
	if err := fs.WriteFile(ino, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.ReadFile(ino)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatal("independent checkpoint region lost data across mount")
	}
	if _, err := fs.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err %v", err)
	}
}

// benchmarkFSAppend measures virtual time per appended block at the
// given write-back granularity (1 = the seed's block-at-a-time path).
func benchmarkFSAppend(b *testing.B, writeback int) {
	for i := 0; i < b.N; i++ {
		p := Params{
			SegmentBlocks:    64,
			CheckpointBlocks: 64,
			WritebackBlocks:  writeback,
			HeatAware:        true,
			ReserveSegments:  2,
		}
		fs := testFS(b, 8192, p)
		ino, err := fs.Create("bench", 0)
		if err != nil {
			b.Fatal(err)
		}
		const blocks = 192
		start := fs.Device().Clock().Now()
		for n := 0; n < blocks; n += 32 {
			if err := fs.WriteFile(ino, payload(byte(n), 32*device.DataBytes)); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		virt := fs.Device().Clock().Now() - start
		b.ReportMetric(float64(virt.Milliseconds()), "virt-ms")
		b.ReportMetric(float64(virt.Nanoseconds())/float64(blocks)/1e3, "virt-µs/block")
	}
}

func BenchmarkFSAppendSerial(b *testing.B)  { benchmarkFSAppend(b, 1) }
func BenchmarkFSAppendBatched(b *testing.B) { benchmarkFSAppend(b, 0) }

// BenchmarkFSAppendBatchedTraced is the batched append benchmark with
// a live tracer attached — the observability plane's overhead gate.
// Virtual time must be byte-identical to the untraced run (tracing
// never advances any clock); wall-clock time must stay within a few
// percent (the emit path is one atomic fetch-add plus a ring store).
func BenchmarkFSAppendBatchedTraced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := Params{
			SegmentBlocks:    64,
			CheckpointBlocks: 64,
			WritebackBlocks:  0,
			HeatAware:        true,
			ReserveSegments:  2,
		}
		fs := testFS(b, 8192, p)
		tr := trace.New(trace.DefaultBuffer)
		fs.Device().SetTracer(tr)
		ino, err := fs.Create("bench", 0)
		if err != nil {
			b.Fatal(err)
		}
		const blocks = 192
		start := fs.Device().Clock().Now()
		for n := 0; n < blocks; n += 32 {
			if err := fs.WriteFile(ino, payload(byte(n), 32*device.DataBytes)); err != nil {
				b.Fatal(err)
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		virt := fs.Device().Clock().Now() - start
		if tr.Len() == 0 {
			b.Fatal("tracer captured no spans")
		}
		b.ReportMetric(float64(virt.Milliseconds()), "virt-ms")
		b.ReportMetric(float64(tr.Len())/float64(blocks), "spans/block")
	}
}

// benchmarkClean measures one cleaning pass at the given fan-out
// width, in virtual ms per pass: a phased Clean over the standard
// fragmented population (32-block segments, several victims per
// round), and a one-victim inline pass over 128-block segments, the
// pass the allocation paths run under churn.
func benchmarkClean(b *testing.B, workers int) {
	b.Run("phased", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := buildFragmentedFS(b, workers)
			b.StartTimer()
			start := fs.Device().Clock().Now()
			cs := fs.Clean(fs.FreeSegments() + 4)
			virt := fs.Device().Clock().Now() - start
			if cs.SegmentsCleaned == 0 {
				b.Fatalf("cleaner reclaimed nothing: %+v", cs)
			}
			b.ReportMetric(float64(virt)/1e6, "virt-ms/pass")
			b.ReportMetric(float64(cs.SegmentsCleaned), "segs")
		}
	})
	b.Run("one-victim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := buildFragmentedFSSeg(b, workers, 128)
			b.StartTimer()
			fs.mu.Lock()
			start := fs.now()
			cs := fs.cleanLocked(fs.sm.reclaimable() + 1)
			virt := fs.now() - start
			fs.mu.Unlock()
			if cs.SegmentsCleaned != 1 {
				b.Fatalf("one-victim pass: %+v", cs)
			}
			b.ReportMetric(float64(virt)/1e6, "virt-ms/pass")
		}
	})
}

func BenchmarkCleanSerial(b *testing.B)    { benchmarkClean(b, 1) }
func BenchmarkCleanParallel4(b *testing.B) { benchmarkClean(b, 4) }
