package lfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sero/internal/device"
)

// The parallel-write-path contract suite: flushing the per-affinity
// appender buffers on concurrent worker planes must never change WHAT
// lands on the medium — every class's run was preassigned from its own
// frontier — only WHEN the virtual clock says it landed. These tests
// pin layout equality across worker counts, the virtual-time win, and
// the cooperative CleanStep API racing foreground appends.

// multiClassParams is the fan-out suite's FS shape: four affinity
// classes' worth of appenders, whole-segment group commit, journal
// syncs with periodic checkpoints so both sync paths (summary record
// and checkpoint rewrite) flush multi-class buffers.
func multiClassParams(conc int) Params {
	return Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 64,
		WritebackBlocks:  64,
		CheckpointEvery:  256,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      conc,
	}
}

// buildMultiClassFS replays the identical mixed-class append workload
// — data files spread over four heat-affinity classes (1–4), with
// inode metadata riding the affinity-0 frontier, interleaved rewrites,
// a sync per round — at the given worker count. Identical inputs must
// produce identical on-medium state for any conc.
func buildMultiClassFS(t testing.TB, conc int) *FS {
	t.Helper()
	fs := testFS(t, 4096, multiClassParams(conc))
	inos := make([]Ino, 8)
	var err error
	for i := range inos {
		if inos[i], err = fs.Create(fmt.Sprintf("m%d", i), uint8(1+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := range inos {
			n := (1 + (round+i)%3) * 8 * device.DataBytes
			if err := fs.WriteFile(inos[i], payload(byte(16*round+i), n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// assertSameLayout fails unless the two file systems are byte-for-byte
// the same layout: identical segment tables, identical per-file block
// pointers, identical readable contents.
func assertSameLayout(t *testing.T, want, got *FS, label string) {
	t.Helper()
	segsW, segsG := want.Segments(), got.Segments()
	if len(segsW) != len(segsG) {
		t.Fatalf("%s: segment table sizes diverge (%d vs %d)", label, len(segsW), len(segsG))
	}
	for i := range segsW {
		if segsW[i] != segsG[i] {
			t.Fatalf("%s: segment %d diverges: %+v vs %+v", label, i, segsW[i], segsG[i])
		}
	}
	names := want.Names()
	gotNames := got.Names()
	if len(names) != len(gotNames) {
		t.Fatalf("%s: namespaces diverge", label)
	}
	for _, name := range names {
		inoW, err := want.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		inoG, err := got.Lookup(name)
		if err != nil {
			t.Fatalf("%s: %s missing: %v", label, name, err)
		}
		stW, err := want.Stat(inoW)
		if err != nil {
			t.Fatal(err)
		}
		stG, err := got.Stat(inoG)
		if err != nil {
			t.Fatal(err)
		}
		if len(stW.Blocks) != len(stG.Blocks) {
			t.Fatalf("%s: %s block counts diverge", label, name)
		}
		for j := range stW.Blocks {
			if stW.Blocks[j] != stG.Blocks[j] {
				t.Fatalf("%s: %s block %d: %d vs %d", label, name, j, stW.Blocks[j], stG.Blocks[j])
			}
		}
		cW, err := want.ReadFile(inoW)
		if err != nil {
			t.Fatal(err)
		}
		cG, err := got.ReadFile(inoG)
		if err != nil || !bytes.Equal(cW, cG) {
			t.Fatalf("%s: %s contents diverge: %v", label, name, err)
		}
	}
}

// TestMultiClassFlushMatchesSerialLayout is the per-class appender
// fan-out contract at j ∈ {1, 2, 4}: the fanned Sync flush must
// produce serial-identical bytes — same segment table, same block
// pointers, same contents — at every worker count, while j=4 costs
// measurably less virtual time than serial.
func TestMultiClassFlushMatchesSerialLayout(t *testing.T) {
	serial := buildMultiClassFS(t, 1)
	serialCost := serial.Device().Clock().Now()
	for _, j := range []int{2, 4} {
		fanned := buildMultiClassFS(t, j)
		assertSameLayout(t, serial, fanned, fmt.Sprintf("j=%d", j))
		cost := fanned.Device().Clock().Now()
		if cost > serialCost {
			t.Fatalf("j=%d workload cost %v, serial %v — fan-out made it slower", j, cost, serialCost)
		}
	}
	// The widest fan-out must show a real win, not a wash.
	fanned := buildMultiClassFS(t, 4)
	if cost := fanned.Device().Clock().Now(); cost*4 > serialCost*3 {
		t.Fatalf("j=4 workload cost %v vs serial %v — no real fan-out win", cost, serialCost)
	}
	// And the media must remount identically at any j. Mounted views
	// are compared against each other, not the live FS: mount
	// reconstructs liveness, so a fully-dead segment reads back as
	// free rather than full-and-all-dead.
	ref, err := Mount(serial.Device(), serial.Params())
	if err != nil {
		t.Fatalf("serial remount: %v", err)
	}
	for _, j := range []int{1, 4} {
		fs := buildMultiClassFS(t, j)
		mounted, err := Mount(fs.Device(), fs.Params())
		if err != nil {
			t.Fatalf("j=%d: remount: %v", j, err)
		}
		assertSameLayout(t, ref, mounted, fmt.Sprintf("j=%d remount", j))
	}
}

// TestCleanStepReclaims drives the cooperative cleaning API the way a
// latency-critical embedder would: single CleanStep rounds between
// foreground work, each bounded by the constant victim batch, until
// the target is met — then verifies the gated segments are released by
// the next Sync and that further steps report nothing to do.
func TestCleanStepReclaims(t *testing.T) {
	fs := buildFragmentedFS(t, 2)
	freeBefore := fs.FreeSegments()
	target := freeBefore + 4
	steps := 0
	for {
		cs, more := fs.CleanStep(target)
		if cs.SegmentsCleaned > cleanBatchSegments {
			t.Fatalf("step took %d victims, cap is %d", cs.SegmentsCleaned, cleanBatchSegments)
		}
		if !more {
			break
		}
		steps++
		if steps > 64 {
			t.Fatal("CleanStep failed to converge")
		}
	}
	if steps == 0 {
		t.Fatal("CleanStep never made progress on a fragmented FS")
	}
	// The emptied segments are gated until a covering point; a Sync
	// must release them to the free pool. The sync's own flush may
	// consume a segment or two, so assert a net gain rather than the
	// exact reclaimable target the step loop converged on.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if free := fs.FreeSegments(); free <= freeBefore {
		t.Fatalf("stepping + sync gained nothing: %d free before, %d after", freeBefore, free)
	}
	if _, more := fs.CleanStep(fs.FreeSegments()); more {
		t.Fatal("CleanStep reports work with the target already met")
	}
	// Contents survived the stepped cleaning.
	for i := 0; i < 24; i++ {
		ino, err := fs.Lookup(fmt.Sprintf("f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(ino)
		if err != nil || !bytes.Equal(got, fragWant(i)) {
			t.Fatalf("f%02d corrupted by stepped cleaning: %v", i, err)
		}
	}
}

// TestCleanStepRacesForegroundAppends races cooperative cleaning
// rounds against concurrent foreground appenders — the embedder's
// actual deployment shape. Every append must survive, every file must
// read back intact afterwards, and the race detector must stay quiet.
func TestCleanStepRacesForegroundAppends(t *testing.T) {
	fs := buildFragmentedFS(t, 2)
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	cleanerDone := make(chan struct{})

	// The cleaner: step toward an ever-receding target until told to
	// stop, like an embedder cleaning in its idle moments.
	go func() {
		defer close(cleanerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.CleanStep(fs.FreeSegments() + 2)
		}
	}()

	type result struct {
		name string
		want []byte
	}
	results := make([][]result, writers)
	var werr sync.Map
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				name := fmt.Sprintf("race-g%d-%d", g, i)
				ino, err := fs.Create(name, uint8(g%4))
				if err != nil {
					werr.Store(g, err)
					return
				}
				want := payload(byte(32+8*g+i), (1+i%3)*device.DataBytes)
				if err := fs.WriteFile(ino, want); err != nil {
					werr.Store(g, err)
					return
				}
				if i%2 == 1 {
					if err := fs.Sync(); err != nil {
						werr.Store(g, err)
						return
					}
				}
				results[g] = append(results[g], result{name: name, want: want})
			}
		}(g)
	}
	wg.Wait()
	// Writers are done; release the cleaner only now so cleaning rounds
	// genuinely overlapped the whole foreground phase.
	close(stop)
	<-cleanerDone
	werr.Range(func(k, v any) bool {
		t.Fatalf("writer %v: %v", k, v)
		return false
	})
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for g := range results {
		for _, r := range results[g] {
			ino, err := fs.Lookup(r.name)
			if err != nil {
				t.Fatalf("%s lost: %v", r.name, err)
			}
			got, err := fs.ReadFile(ino)
			if err != nil || !bytes.Equal(got, r.want) {
				t.Fatalf("%s corrupted under stepped cleaning: %v", r.name, err)
			}
		}
	}
	// And the raced state must still mount.
	if _, err := Mount(fs.Device(), fs.Params()); err != nil {
		t.Fatalf("remount after raced CleanStep: %v", err)
	}
}

// benchmarkFSAppendMultiClass measures the mixed hot+cold append
// workload — eight affinity classes, a sync per round — at the given
// flush fan-out. Layout is identical at every j; only virtual time
// differs.
func benchmarkFSAppendMultiClass(b *testing.B, conc int) {
	const classes, perClass, rounds = 8, 16, 4
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 64,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      conc,
	}
	for i := 0; i < b.N; i++ {
		fs := testFS(b, 8192, p)
		inos := make([]Ino, classes)
		var err error
		for c := range inos {
			if inos[c], err = fs.Create(fmt.Sprintf("c%d", c), uint8(c)); err != nil {
				b.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
		start := fs.Device().Clock().Now()
		for r := 0; r < rounds; r++ {
			for c := range inos {
				if err := fs.WriteFile(inos[c], payload(byte(c), perClass*device.DataBytes)); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
		}
		virt := fs.Device().Clock().Now() - start
		b.ReportMetric(float64(virt.Milliseconds()), "virt-ms")
		b.ReportMetric(float64(virt.Microseconds())/(classes*perClass*rounds), "virt-µs/block")
	}
}

func BenchmarkFSAppendMultiClassSerial(b *testing.B)  { benchmarkFSAppendMultiClass(b, 1) }
func BenchmarkFSAppendMultiClassFanned2(b *testing.B) { benchmarkFSAppendMultiClass(b, 2) }
func BenchmarkFSAppendMultiClassFanned4(b *testing.B) { benchmarkFSAppendMultiClass(b, 4) }

// TestReadablePrefixSerialFannedEquivalence pins the shared
// readable-prefix primitive: fanned and serial reads of the same range
// return identical bytes, and an unreadable block mid-range degrades
// both to the same prefix with complete=false.
func TestReadablePrefixSerialFannedEquivalence(t *testing.T) {
	dev := quietDev(512)
	const base, blocks = 64, 96
	run := make([][]byte, blocks)
	for i := range run {
		run[i] = payload(byte(i), device.DataBytes)
	}
	if err := dev.WriteBlocksTraced(nil, base, run); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(run, nil)
	for _, w := range []int{1, 4} {
		got, complete := ReadablePrefix(dev, base, blocks, w)
		if !complete || !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: clean range not fully read (complete=%v, %d bytes)", w, complete, len(got))
		}
	}
	// An electrically-written block mid-range refuses magnetic reads;
	// both paths must degrade to the same readable prefix.
	if err := dev.EWS(base+40, []byte("frozen")); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, complete := ReadablePrefix(dev, base, blocks, w)
		if complete {
			t.Fatalf("workers=%d: unreadable block not reported", w)
		}
		if !bytes.Equal(got, want[:40*device.DataBytes]) {
			t.Fatalf("workers=%d: degraded prefix is %d bytes, want %d", w, len(got), 40*device.DataBytes)
		}
	}
}
