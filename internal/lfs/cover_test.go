package lfs

import (
	"bytes"
	"fmt"
	"testing"

	"sero/internal/device"
)

// copyTap is a raw device that notes every cleaner copy: the groups of
// each MoveGroups call and the span [from, to) of rec's recorded writes
// it made.
type copyTap struct {
	*device.Device
	rec    *crashRecorder
	copies []tappedCopy
}

type tappedCopy struct {
	groups   [][]device.BlockMove
	from, to int
}

func (d *copyTap) MoveGroups(groups [][]device.BlockMove, workers int) []device.MoveResult {
	if d.rec == nil || len(groups) == 0 {
		return d.Device.MoveGroups(groups, workers)
	}
	c := tappedCopy{groups: groups, from: d.rec.count()}
	res := d.Device.MoveGroups(groups, workers)
	c.to = d.rec.count()
	d.copies = append(d.copies, c)
	return res
}

// holdsFiles reports whether every file of s is in the mounted FS with
// its content; files s does not name may exist too.
func holdsFiles(fs *FS, s fsSnapshot) bool {
	for n, want := range s.files {
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

// TestSyncSpacePassAcksWithRecord drives a Sync whose space pass must
// clean before the flush fits. While the journal can take a record
// (CheckpointEvery is large) the pass acks each cleaning round with a
// summary record, not a checkpoint, and the same Sync's flush reuses an
// emptied victim — never before the record that released it. The Sync
// is then torn at every point: every combination of each copy's
// per-share prefixes, and every prefix of the writes between and after
// the copies (the commits, the space records, the flush and the final
// record). Each state must mount with every acked write intact: the
// previous ack's files, or once the final record lands the new ack
// exactly.
func TestSyncSpacePassAcksWithRecord(t *testing.T) {
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 64,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20, // the journal always has room
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      4,
	}
	raw := quietDev(64 + 13*64)
	tap := &copyTap{Device: raw}
	fs, err := New(tap, p)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("f%02d", i)
		ino, err := fs.Create(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		model[name] = payload(byte(i), 16*device.DataBytes)
		if err := fs.WriteFile(ino, model[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil { // the anchoring checkpoint
		t.Fatal(err)
	}
	// Overwrite every odd block of files [0, n), one Sync a round: each
	// segment written so far is left half live, live and dead blocks
	// alternating, and the log short of free segments.
	overwrite := func(round, n int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("f%02d", i)
			ino, err := fs.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b < 16; b += 2 {
				data := payload(byte(16*round+i+b), device.DataBytes)
				if err := fs.Write(ino, uint64(b)*device.DataBytes, data); err != nil {
					t.Fatal(err)
				}
				copy(model[name][b*device.DataBytes:], data)
			}
		}
	}
	overwrite(0, 24)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	overwrite(1, 12)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	prev := snapshotModel(model, 0)
	overwrite(2, 16)
	fs.mu.Lock()
	short := fs.sm.freeSegments() < fs.syncSpaceNeedLocked()
	fs.mu.Unlock()
	if !short {
		t.Fatal("the log is not short of space before the Sync")
	}

	restore := snapshotDots(raw)
	rec := recordWrites(raw)
	tap.rec = rec
	before := fs.Stats()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	raw.SetWriteObserver(nil)
	tap.rec = nil
	after := fs.Stats()
	acked := snapshotModel(model, 0)
	if after.CleanerPasses == before.CleanerPasses || len(tap.copies) == 0 {
		t.Fatal("the Sync's space pass did not clean")
	}
	if after.Checkpoints != before.Checkpoints {
		t.Fatalf("the Sync wrote %d checkpoints, want its cleans acked by summary records",
			after.Checkpoints-before.Checkpoints)
	}
	fanned := false
	for _, c := range tap.copies {
		fanned = fanned || len(c.groups) > 1
	}
	if !fanned {
		t.Fatal("no copy of the space pass fanned over worker planes")
	}

	// Each copy's emptied victims are released by the first summary
	// record behind it, and no write may land in one before that
	// record; the flush then reuses one.
	reused := false
	for ci, c := range tap.copies {
		victims := make(map[*segment]bool)
		for _, g := range c.groups {
			for _, mv := range g {
				victims[fs.sm.segOf(mv.Src)] = true
			}
		}
		released := false
		for i, w := range rec.writes[c.to:] {
			if h, ok := parseRecHeader(w.data); ok && h.kind == recDelta {
				released = true
			}
			if victims[fs.sm.segOf(w.pba)] {
				if !released {
					t.Fatalf("copy %d: write %d lands in victim block %d before a record releases it", ci, c.to+i, w.pba)
				}
				reused = true
			}
		}
	}
	if !reused {
		t.Fatal("the Sync's flush did not reuse an emptied victim")
	}

	check := func(what string, final bool) {
		t.Helper()
		m, err := Mount(raw, p)
		if err != nil {
			t.Fatalf("%s: mount failed: %v", what, err)
		}
		if final && !matchesSnapshot(m, acked) {
			t.Fatalf("%s: the whole Sync did not mount its ack", what)
		}
		if !holdsFiles(m, prev) && !matchesSnapshot(m, acked) {
			t.Fatalf("%s: an acked write was lost", what)
		}
	}
	// linear crashes every prefix of rec.writes[from:to] on top of the
	// first from writes; under -short or the race detector every third
	// one, and the whole Sync.
	step := 1
	if testing.Short() || raceDetector {
		step = 3
	}
	linear := func(from, to int) {
		for k := from; k <= to; k += step {
			if k+step > to {
				k = to
			}
			restore()
			writeBlocks(t, raw, rec.writes[:k])
			check(fmt.Sprintf("crash at write %d/%d", k, rec.count()), k == rec.count())
		}
	}
	done := 0
	for ci, c := range tap.copies {
		linear(done, c.from)
		landed := make(map[uint64][]byte)
		for _, w := range rec.writes[c.from:c.to] {
			landed[w.pba] = w.data
		}
		shares := make([][]blockWrite, len(c.groups))
		for g, group := range c.groups {
			for _, mv := range group {
				shares[g] = append(shares[g], blockWrite{pba: mv.Dst, data: landed[mv.Dst]})
			}
		}
		pre := func() { restore(); writeBlocks(t, raw, rec.writes[:c.from]) }
		sharePrefixes(t, raw, shares, pre, func(comb int, _ []int) {
			check(fmt.Sprintf("copy %d combination %d", ci, comb), false)
		})
		done = c.to
	}
	linear(done, rec.count())
}

// TestSpacePassCheckpointsStarvedChain builds a summary chain that pins
// every segment the cleaner could reclaim: one-file overwrites, each
// acked by its own record, with checkpoints far apart. A Sync then
// finds the log short; its record-acked cleaning round can pick no
// victim and gains nothing, so the space pass checkpoints, which clears
// the chain's pins, cleans again and succeeds without ErrFull. The
// checkpoint is counted in CleanCheckpoints.
func TestSpacePassCheckpointsStarvedChain(t *testing.T) {
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  16,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
	}
	fs := testFS(t, 16+12*16, p)
	model := make(map[string][]byte)
	inos := make([]Ino, 4)
	for i := range inos {
		name := fmt.Sprintf("f%d", i)
		var err error
		if inos[i], err = fs.Create(name, 0); err != nil {
			t.Fatal(err)
		}
		model[name] = payload(byte(i), 2*device.DataBytes)
		if err := fs.WriteFile(inos[i], model[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for r := 0; ; r++ {
		if r == 200 {
			t.Fatal("no Sync's space pass checkpointed")
		}
		name := fmt.Sprintf("f%d", r%4)
		model[name] = payload(byte(0x40+r), 2*device.DataBytes)
		if err := fs.WriteFile(inos[r%4], model[name]); err != nil {
			t.Fatal(err)
		}
		segs := fs.Segments()
		before := fs.Stats()
		if err := fs.Sync(); err != nil {
			t.Fatalf("sync %d: %v", r, err)
		}
		after := fs.Stats()
		if after.CleanCheckpoints == before.CleanCheckpoints {
			if after.Checkpoints != before.Checkpoints {
				t.Fatalf("sync %d checkpointed with the journal open and no starved round", r)
			}
			continue
		}
		for _, s := range segs {
			if s.State == SegFull && s.DeadBlocks > 0 && !s.Journal {
				t.Fatalf("sync %d: segment %d could be cleaned without clearing the chain: %+v", r, s.ID, s)
			}
		}
		if after.CleanCheckpoints != before.CleanCheckpoints+1 || after.Checkpoints != before.Checkpoints+1 {
			t.Fatalf("sync %d: %d checkpoints, %d of them for a starved round; want one of each",
				r, after.Checkpoints-before.Checkpoints, after.CleanCheckpoints-before.CleanCheckpoints)
		}
		if after.CleanerPasses < before.CleanerPasses+2 {
			t.Fatalf("sync %d cleaned %d times; want a second pass after the checkpoint", r, after.CleanerPasses-before.CleanerPasses)
		}
		break
	}
	m, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesSnapshot(m, snapshotModel(model, 0)) {
		t.Fatal("the remount lost an acked write")
	}
}
