package lfs

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"sero/internal/device"
	"sero/internal/medium"
	"sero/internal/trace"
)

// The crash-injection harness. The device exposes the exact stream of
// committed magnetic block writes (device.SetWriteObserver); the
// harness records it while a workload runs and can then rebuild the
// medium as of ANY block boundary — the host dies between two block
// commits, including in the middle of a batched command or of the
// checkpoint region rewrite. The crash-consistency property under
// test:
//
//	for every crash point after an acked Sync, Mount recovers exactly
//	one of the acked states at or after the last fully-durable ack —
//	all acked data present, no torn record surfaced as an error, and
//	never a torn mixture of two states.
//
// Scope: the observer taps magnetic block writes only, so crash
// workloads here exclude HeatFile (a heat is an electrical operation
// whose line registry a rebuilt medium would lack). The heated
// relocation's journaling is covered at replay granularity by
// TestHeatedFileSurvivesReplay instead.

// quietDev builds a deterministic (noiseless) raw device.
func quietDev(blocks int) *device.Device {
	return device.New(device.QuietParams(blocks))
}

type blockWrite struct {
	pba  uint64
	data []byte
}

// crashRecorder taps a device's committed write stream.
type crashRecorder struct {
	mu     sync.Mutex
	writes []blockWrite
}

func recordWrites(dev device.Dev) *crashRecorder {
	r := &crashRecorder{}
	dev.SetWriteObserver(func(pba uint64, data []byte) {
		cp := append([]byte(nil), data...)
		r.mu.Lock()
		r.writes = append(r.writes, blockWrite{pba: pba, data: cp})
		r.mu.Unlock()
	})
	return r
}

func (r *crashRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.writes)
}

// deviceAt rebuilds a fresh medium holding exactly the first k
// committed block writes — the state an abruptly killed host leaves
// behind.
func (r *crashRecorder) deviceAt(t testing.TB, blocks, k int) *device.Device {
	t.Helper()
	dev := quietDev(blocks)
	r.mu.Lock()
	defer r.mu.Unlock()
	writeBlocks(t, dev, r.writes[:k])
	return dev
}

// writeBlocks commits recorded block writes to dev, one command each.
func writeBlocks(t testing.TB, dev device.Dev, ws []blockWrite) {
	t.Helper()
	for _, w := range ws {
		if err := dev.WriteBlocksTraced(nil, w.pba, [][]byte{w.data}); err != nil {
			t.Fatalf("replaying write %d to crash image: %v", w.pba, err)
		}
	}
}

// sharePrefixes enumerates the crash states of one fanned command.
// Its shares commit on worker planes with no order between them, so a
// crash can leave any prefix of each share on the medium, a hole
// included (a later share landed, an earlier one not). For every
// combination of per-share prefixes — none, one block, half or all of
// each share — from the whole command down, it calls restore, writes
// the prefixes to dev and calls check with the combination and the
// prefix length of each share. Under -short or the race detector every
// third combination runs; that still includes the whole command and
// the empty one.
func sharePrefixes(t *testing.T, dev device.Dev, shares [][]blockWrite, restore func(), check func(c int, n []int)) {
	t.Helper()
	step := 1
	if testing.Short() || raceDetector {
		step = 3
	}
	n := make([]int, len(shares))
	for c := 1<<(2*len(shares)) - 1; c >= 0; c -= step {
		restore()
		for r, ws := range shares {
			n[r] = []int{0, 1, len(ws) / 2, len(ws)}[c>>(2*r)&3]
			writeBlocks(t, dev, ws[:n[r]])
		}
		check(c, n)
	}
}

// snapshotDots captures the whole medium of dev, raw dots and all, and
// returns a func that puts it back in place: far cheaper than
// rebuilding each crash image from the recorded write stream.
func snapshotDots(dev *device.Device) (restore func()) {
	end := uint64(dev.Blocks())
	raw := make([]byte, dev.Blocks()*device.DotsPerBlock/8)
	dev.TamperRaw(0, end, func(m *medium.Medium) { m.MRBImage(0, raw) })
	return func() { dev.TamperRaw(0, end, func(m *medium.Medium) { m.MWBImage(0, raw) }) }
}

// fsSnapshot is one acked state: the logical file map as of a
// successful Sync, plus how many block writes were durable at the ack.
type fsSnapshot struct {
	writes int
	files  map[string][]byte
}

func snapshotModel(model map[string][]byte, writes int) fsSnapshot {
	cp := make(map[string][]byte, len(model))
	for n, c := range model {
		cp[n] = append([]byte(nil), c...)
	}
	return fsSnapshot{writes: writes, files: cp}
}

// matchesSnapshot reports whether the mounted FS is state-identical to
// the snapshot: same names, same durable contents.
func matchesSnapshot(fs *FS, s fsSnapshot) bool {
	names := fs.Names()
	if len(names) != len(s.files) {
		return false
	}
	for _, n := range names {
		want, ok := s.files[n]
		if !ok {
			return false
		}
		ino, err := fs.Lookup(n)
		if err != nil {
			return false
		}
		got, err := fs.ReadFile(ino)
		if err != nil || !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

// TestCrashConsistencyEveryBoundary runs a mixed workload — creates
// spread over four heat-affinity classes, multi-block writes dirtying
// at least two classes per sync (so the fanned multi-class flush is
// mid-flight at many crash points), overwrites, deletes, renames,
// journaled syncs and policy checkpoints — and then crashes it at
// every single block boundary, mounting each crash image.
func TestCrashConsistencyEveryBoundary(t *testing.T) {
	const devBlocks = 2048
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  8,
		CheckpointEvery:  48, // journal syncs with periodic checkpoints
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      2, // fan the per-class Sync flush (and the mounts below)
	}
	dev := quietDev(devBlocks)
	rec := recordWrites(dev)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[string][]byte)
	var acks []fsSnapshot
	write := func(name string, off, n int, seed byte) {
		ino, lerr := fs.Lookup(name)
		if lerr != nil {
			// Deleted earlier in the workload: recreate, so the op mix
			// includes delete-then-recreate across sync intervals.
			if ino, lerr = fs.Create(name, 0); lerr != nil {
				t.Fatal(lerr)
			}
			model[name] = nil
		}
		data := payload(seed, n)
		if werr := fs.Write(ino, uint64(off), data); werr != nil {
			t.Fatal(werr)
		}
		buf := model[name]
		for len(buf) < off+n {
			buf = append(buf, 0)
		}
		copy(buf[off:], data)
		model[name] = buf
	}
	sync := func() {
		if serr := fs.Sync(); serr != nil {
			t.Fatal(serr)
		}
		acks = append(acks, snapshotModel(model, rec.count()))
	}

	for i := 0; i < 4; i++ {
		if _, cerr := fs.Create(fmt.Sprintf("f%d", i), uint8(i%4)); cerr != nil {
			t.Fatal(cerr)
		}
		model[fmt.Sprintf("f%d", i)] = nil
	}
	sync() // first checkpoint
	for round := 0; round < 10; round++ {
		name := fmt.Sprintf("f%d", round%4)
		write(name, (round%3)*device.DataBytes/2, 1+round%3*device.DataBytes, byte(round+1))
		// Dirty a second affinity class in the same sync interval, so
		// the flush fans at least two class runs plus the affinity-0
		// metadata run — crash points land between and inside them.
		write(fmt.Sprintf("f%d", (round+2)%4), 0, device.DataBytes, byte(0x40+round))
		if round == 4 {
			if derr := fs.Delete("f3"); derr != nil {
				t.Fatal(derr)
			}
			delete(model, "f3")
		}
		if round == 6 {
			if rerr := fs.Rename("f2", "g2"); rerr != nil {
				t.Fatal(rerr)
			}
			model["g2"] = model["f2"]
			delete(model, "f2")
		}
		sync()
	}
	dev.SetWriteObserver(nil)

	total := rec.count()
	if total == 0 {
		t.Fatal("harness recorded no writes")
	}
	step := 1
	if testing.Short() {
		step = 5
	}
	if raceDetector {
		// The sweep replays O(total²/step) block writes across its
		// mounts; under the race detector's slowdown a stride of 1
		// blows the package timeout. 5 keeps every phase sampled and
		// stays off the k%7 cross-check cadence below.
		step *= 5
	}
	for k := 0; k <= total; k += step {
		lastAck := -1
		for i, a := range acks {
			if a.writes <= k {
				lastAck = i
			}
		}
		crashed := rec.deviceAt(t, devBlocks, k)
		mounted, merr := Mount(crashed, p)
		if lastAck < 0 {
			// Nothing was ever acked; an unmountable medium is allowed.
			continue
		}
		if merr != nil {
			t.Fatalf("crash at write %d/%d (last ack %d): mount failed: %v",
				k, total, lastAck, merr)
		}
		// The mounted state must be exactly the last acked state or, if
		// the crash fell inside the next Sync, possibly that next state
		// once its record was fully durable — never a torn mixture.
		ok := matchesSnapshot(mounted, acks[lastAck])
		if !ok && lastAck+1 < len(acks) {
			ok = matchesSnapshot(mounted, acks[lastAck+1])
		}
		if !ok {
			t.Fatalf("crash at write %d/%d: mounted state is neither ack %d nor ack %d",
				k, total, lastAck, lastAck+1)
		}
		// Sampled equivalence sweep: whatever the crash tore, the
		// table-driven mount and the full-walk fallback must recover
		// byte-identical state from the same crash image.
		if k%7 == 0 {
			walked, werr := mount(rec.deviceAt(t, devBlocks, k), p, false)
			if werr != nil {
				t.Fatalf("crash at write %d/%d: walk mount failed: %v", k, total, werr)
			}
			if ft, fw := mountFingerprint(mounted), mountFingerprint(walked); ft != fw {
				t.Fatalf("crash at write %d/%d: table mount diverges from walk mount (table used: %v, fallback %q)",
					k, total, mounted.MountReport().TableMount, mounted.MountReport().Fallback)
			}
		}
	}
}

// TestCrashMidCheckpointFallsBack pins the dual-slot guarantee
// specifically: crash points inside the checkpoint-region rewrite must
// fall back to the previous slot plus its summary chain, losing
// nothing that was acked.
func TestCrashMidCheckpointFallsBack(t *testing.T) {
	const devBlocks = 1024
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		CheckpointEvery:  1 << 20, // only explicit checkpoints
		HeatAware:        true,
		ReserveSegments:  2,
	}
	dev := quietDev(devBlocks)
	rec := recordWrites(dev)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // checkpoint epoch 1
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(2, 2*device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // journal record
		t.Fatal(err)
	}
	want := payload(2, 2*device.DataBytes)
	ackWrites := rec.count()
	if err := fs.Checkpoint(); err != nil { // checkpoint epoch 2, other slot
		t.Fatal(err)
	}
	dev.SetWriteObserver(nil)
	total := rec.count()
	if total <= ackWrites {
		t.Fatal("explicit checkpoint wrote nothing")
	}
	for k := ackWrites; k <= total; k++ {
		crashed := rec.deviceAt(t, devBlocks, k)
		mounted, merr := Mount(crashed, p)
		if merr != nil {
			t.Fatalf("crash at write %d during checkpoint: mount failed: %v", k, merr)
		}
		got, rerr := mounted.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("crash at write %d during checkpoint: acked data lost: %v", k, rerr)
		}
	}
}

// TestCrashMidFannedCheckpoint tears a checkpoint whose slot write
// fans over four worker planes. The fanned runs commit with no order
// between them, so a crash can leave any prefix of each run on the
// medium, a hole included (a later run landed, an earlier one not).
// The crash images are built directly from every combination of
// per-run prefixes (none, one block, half, all), over a slot used for
// the first time (unwritten blocks) and over one still holding epoch
// N-2's bytes. Every image must mount; the mount must pick epoch N
// exactly when N's core frame is intact, trust N's liveness table
// exactly when the table frame is intact too (otherwise walk, as
// MountReport says), and read every acked write back.
func TestCrashMidFannedCheckpoint(t *testing.T) {
	const devBlocks = 4096
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 256,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20, // only explicit checkpoints
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	for _, reused := range []bool{false, true} {
		t.Run(fmt.Sprintf("reused=%v", reused), func(t *testing.T) {
			dev := quietDev(devBlocks)
			fs, err := New(dev, p)
			if err != nil {
				t.Fatal(err)
			}
			model := make(map[string][]byte)
			for i := 0; i < 600; i++ {
				name := fmt.Sprintf("f%03d", i)
				ino, err := fs.Create(name, uint8(i%4))
				if err != nil {
					t.Fatal(err)
				}
				model[name] = payload(byte(i), device.DataBytes)
				if err := fs.WriteFile(ino, model[name]); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil { // epoch 1, slot 0
				t.Fatal(err)
			}
			if reused {
				if err := fs.Checkpoint(); err != nil { // epoch 2, slot 1
					t.Fatal(err)
				}
			}
			// An acked journal record on top of the last checkpoint: a
			// fall back must replay it.
			for i := 0; i < 600; i += 61 {
				name := fmt.Sprintf("f%03d", i)
				ino, _ := fs.Lookup(name)
				model[name] = payload(byte(0x80+i), device.DataBytes)
				if err := fs.WriteFile(ino, model[name]); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Delete("f001"); err != nil {
				t.Fatal(err)
			}
			delete(model, "f001")
			if err := fs.Rename("f002", "g002"); err != nil {
				t.Fatal(err)
			}
			model["g002"] = model["f002"]
			delete(model, "f002")
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			if fs.Stats().JournalRecords == 0 {
				t.Fatal("the last sync did not journal")
			}
			acked := snapshotModel(model, 0)

			epoch := fs.ckptEpoch + 1
			base := uint64((epoch - 1) % 2 * uint64(fs.slotBlocks()))
			end := base + uint64(fs.slotBlocks())
			old := make([][]byte, fs.slotBlocks()) // the slot before epoch N; nil = unwritten
			for i := range old {
				old[i], _ = dev.MRS(base + uint64(i))
			}
			// Each crash image is this device with the slot's raw dots put
			// back as they were before epoch N and a combination written
			// over them: far cheaper than restoring a whole image.
			raw := make([]byte, fs.slotBlocks()*device.DotsPerBlock/8)
			dev.TamperRaw(base, end, func(m *medium.Medium) { m.MRBImage(int(base)*device.DotsPerBlock, raw) })
			restore := func() {
				dev.TamperRaw(base, end, func(m *medium.Medium) { m.MWBImage(int(base)*device.DotsPerBlock, raw) })
			}
			if !reused && old[0] != nil {
				t.Fatal("the first-use slot holds data")
			}
			if reused && old[0] == nil {
				t.Fatal("the reused slot is unwritten")
			}
			rec := recordWrites(dev)
			if err := fs.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			dev.SetWriteObserver(nil)
			img := make([][]byte, rec.count())
			for _, w := range rec.writes {
				off := w.pba - base
				if w.pba < base || off >= uint64(len(img)) || img[off] != nil {
					t.Fatalf("checkpoint wrote block %d outside its %d-block image at %d", w.pba, len(img), base)
				}
				img[off] = w.data
			}
			per, planes := planeShares(len(img), p.Concurrency)
			if len(img) < 64 || planes != 4 {
				t.Fatalf("slot image of %d blocks fans over %d planes, want >= 64 blocks on 4", len(img), planes)
			}
			flat := bytes.Join(img, nil)
			coreEnd := 16 + binary.BigEndian.Uint64(flat)
			tableEnd := coreEnd + 16 + binary.BigEndian.Uint64(flat[coreEnd:])
			intact := func(have []bool, end uint64) bool {
				for b := uint64(0); b*device.DataBytes < end; b++ {
					if !have[b] && !bytes.Equal(old[b], img[b]) {
						return false
					}
				}
				return true
			}

			shares := make([][]blockWrite, planes)
			for i, data := range img {
				shares[i/per] = append(shares[i/per], blockWrite{pba: base + uint64(i), data: data})
			}
			// Every third combination (under -short or the race
			// detector) still covers all three outcomes.
			var picked, walked, held int
			sharePrefixes(t, dev, shares, restore, func(c int, n []int) {
				have := make([]bool, len(img))
				for r, k := range n {
					for i := r * per; i < r*per+k; i++ {
						have[i] = true
					}
				}
				m, err := Mount(dev, p)
				if err != nil {
					t.Fatalf("combination %d: mount failed: %v", c, err)
				}
				wantN := intact(have, coreEnd)
				wantTable := !wantN || intact(have, tableEnd)
				if got := m.ckptEpoch == epoch; got != wantN {
					t.Fatalf("combination %d: mounted epoch %d, want epoch %d = %v (core intact)", c, m.ckptEpoch, epoch, wantN)
				}
				if rep := m.MountReport(); rep.TableMount != wantTable || rep.TableMount != (rep.Fallback == "") {
					t.Fatalf("combination %d: epoch %d mount report %+v, want table mount %v", c, m.ckptEpoch, rep, wantTable)
				}
				if !matchesSnapshot(m, acked) {
					t.Fatalf("combination %d: epoch %d mount lost an acked write", c, m.ckptEpoch)
				}
				switch {
				case !wantN:
					held++
				case !wantTable:
					walked++
				default:
					picked++
				}
			})
			if picked == 0 || walked == 0 || held == 0 {
				t.Fatalf("combinations gave %d epoch-N table mounts, %d epoch-N walks, %d fall backs; want each", picked, walked, held)
			}
		})
	}
}

// TestCrashMidFannedCopy tears a one-victim cleaning round whose moves
// fan over four worker planes, then the commit and checkpoint that
// make the relocation durable. The copy writes only destinations
// reserved past the log frontier, which nothing durable references
// until the checkpoint; so every combination of per-share copy
// prefixes, and every prefix of what follows a whole copy, must mount
// and read every acked file back, and the whole pass must mount from
// its new checkpoint.
func TestCrashMidFannedCopy(t *testing.T) {
	fs := buildFragmentedFSSeg(t, 4, 128)
	dev := fs.dev.(*device.Device)
	acked := make(map[string][]byte)
	for i := 0; i < 24; i++ {
		acked[fmt.Sprintf("f%02d", i)] = fragWant(i)
	}
	ack := snapshotModel(acked, 0)
	restore := snapshotDots(dev)

	var cs CleanStats
	fs.mu.Lock()
	fs.setCleaningLocked(true)
	plan := fs.planVictimsLocked(fs.pickVictims(1, &cs), &cs)
	fs.mu.Unlock()
	if plan == nil || len(plan.groups) != 4 {
		t.Fatalf("one-victim plan %+v, want its moves in 4 shares", plan)
	}
	rec := recordWrites(dev)
	results := dev.MoveGroups(plan.groups, len(plan.groups))
	copied := rec.count()
	fs.mu.Lock()
	ok := fs.commitVictimsLocked(plan, results, &cs)
	fs.setCleaningLocked(false)
	fs.mu.Unlock()
	if !ok || cs.SegmentsCleaned != 1 {
		t.Fatalf("round did not clean its victim: %+v", cs)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteObserver(nil)
	if copied != plan.moves() {
		t.Fatalf("copy wrote %d blocks for %d moves", copied, plan.moves())
	}
	landed := make(map[uint64][]byte, copied)
	for _, w := range rec.writes[:copied] {
		landed[w.pba] = w.data
	}
	shares := make([][]blockWrite, len(plan.groups))
	for g, group := range plan.groups {
		for _, mv := range group {
			shares[g] = append(shares[g], blockWrite{pba: mv.Dst, data: landed[mv.Dst]})
		}
	}

	sharePrefixes(t, dev, shares, restore, func(c int, _ []int) {
		m, err := Mount(dev, fs.Params())
		if err != nil {
			t.Fatalf("copy combination %d: mount failed: %v", c, err)
		}
		if !matchesSnapshot(m, ack) {
			t.Fatalf("copy combination %d: an acked write was lost", c)
		}
	})
	tail := rec.writes[copied:]
	for k := 0; k <= len(tail); k++ {
		restore()
		writeBlocks(t, dev, rec.writes[:copied+k])
		m, err := Mount(dev, fs.Params())
		if err != nil {
			t.Fatalf("crash %d/%d writes after the copy: mount failed: %v", k, len(tail), err)
		}
		if !matchesSnapshot(m, ack) {
			t.Fatalf("crash %d/%d writes after the copy: an acked write was lost", k, len(tail))
		}
		if k == len(tail) && m.ckptEpoch != fs.ckptEpoch {
			t.Fatalf("whole pass mounted epoch %d, want the pass's checkpoint %d", m.ckptEpoch, fs.ckptEpoch)
		}
	}
}

// TestCrashMidFannedFlush tears a 64-block write-back flush that fans
// over four worker planes, followed by the Sync whose summary record
// acks it. The record is written only after every share has landed,
// so each combination of per-share flush prefixes must mount the state
// of the previous ack, as must every prefix of the Sync short of its
// last write; the whole Sync must mount the new files.
func TestCrashMidFannedFlush(t *testing.T) {
	p := Params{
		SegmentBlocks:    256,
		CheckpointBlocks: 64,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20, // only explicit checkpoints
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	dev := quietDev(2048)
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("f%d", i)
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = payload(byte(i), device.DataBytes)
		if err := fs.WriteFile(ino, model[name]); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := fs.Sync(); err != nil { // the anchoring checkpoint
				t.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil { // a journal record on top
		t.Fatal(err)
	}
	old := snapshotModel(model, 0)
	restore := snapshotDots(dev)

	// Four 16-block files: the Sync appends their blocks to the log,
	// and the 64th buffered block triggers the write-back flush.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("big%d", i)
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = payload(byte(0x40+i), 16*device.DataBytes)
		if err := fs.WriteFile(ino, model[name]); err != nil {
			t.Fatal(err)
		}
	}
	rec := recordWrites(dev)
	tr := trace.New(trace.DefaultBuffer)
	dev.SetTracer(tr)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	dev.SetWriteObserver(nil)
	dev.SetTracer(nil)
	acked := snapshotModel(model, 0)
	const flushed = 64
	per, planes := planeShares(flushed, p.Concurrency)
	fans := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "write-fanout" && sp.V1 == int64(planes) {
			fans++
		}
	}
	if rec.count() <= flushed || planes != 4 || fans != 1 {
		t.Fatalf("sync wrote %d blocks with %d fans over %d planes, want one %d-block flush over 4 planes, then its record",
			rec.count(), fans, planes, flushed)
	}
	flush := slices.Clone(rec.writes[:flushed])
	slices.SortFunc(flush, func(a, b blockWrite) int { return cmp.Compare(a.pba, b.pba) })
	shares := make([][]blockWrite, planes)
	for i, w := range flush {
		if w.pba != flush[0].pba+uint64(i) {
			t.Fatalf("write-back flush is not one contiguous run: block %d at %d", i, w.pba)
		}
		shares[i/per] = append(shares[i/per], w)
	}

	sharePrefixes(t, dev, shares, restore, func(c int, _ []int) {
		m, err := Mount(dev, p)
		if err != nil {
			t.Fatalf("flush combination %d: mount failed: %v", c, err)
		}
		if !matchesSnapshot(m, old) {
			t.Fatalf("flush combination %d: mounted state is not the last ack", c)
		}
	})
	tail := rec.writes[flushed:]
	for k := 0; k <= len(tail); k++ {
		restore()
		writeBlocks(t, dev, flush)
		writeBlocks(t, dev, tail[:k])
		m, err := Mount(dev, p)
		if err != nil {
			t.Fatalf("crash %d/%d writes into the sync: mount failed: %v", k, len(tail), err)
		}
		want := old
		if k == len(tail) {
			want = acked
		}
		if !matchesSnapshot(m, want) {
			t.Fatalf("crash %d/%d writes into the sync: mounted the wrong ack", k, len(tail))
		}
	}
}
