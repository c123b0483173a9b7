package lfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"sero/internal/device"
	"sero/internal/medium"
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
	for _, w := range r.writes[:k] {
		if err := dev.WriteBlocks(w.pba, [][]byte{w.data}); err != nil {
			t.Fatalf("replaying write %d to crash image: %v", w.pba, err)
		}
	}
	return dev
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
			pw := p
			pw.NoLivenessTable = true
			walked, werr := Mount(rec.deviceAt(t, devBlocks, k), pw)
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
			per, planes := slotShares(len(img), p.Concurrency)
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

			// Under -short or the race detector every third combination,
			// from the whole image down, still covers all three outcomes.
			step := 1
			if testing.Short() || raceDetector {
				step = 3
			}
			var picked, walked, held int
			for c := 1<<(2*planes) - 1; c >= 0; c -= step {
				restore()
				have := make([]bool, len(img))
				for r := 0; r < planes; r++ {
					start, end := r*per, min((r+1)*per, len(img))
					n := []int{0, 1, (end - start) / 2, end - start}[c>>(2*r)&3]
					if n == 0 {
						continue
					}
					if err := dev.WriteBlocks(base+uint64(start), img[start:start+n]); err != nil {
						t.Fatal(err)
					}
					for i := start; i < start+n; i++ {
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
			}
			if picked == 0 || walked == 0 || held == 0 {
				t.Fatalf("combinations gave %d epoch-N table mounts, %d epoch-N walks, %d fall backs; want each", picked, walked, held)
			}
		})
	}
}
