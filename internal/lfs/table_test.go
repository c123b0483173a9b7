package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sero/internal/device"
)

// Tests for the checkpointed liveness table: the table-driven mount
// must be state-identical to the full-walk fallback for any workload,
// any crash point and any fan-out width; a damaged table must degrade
// to the walk, never corrupt liveness; and a double-torn checkpoint
// region must refuse to mount instead of coming up empty.

// mountFingerprint renders the complete recovered durable state of a
// mounted FS — namespace, imap, owner table, segment table,
// journal position, stats and the cleaner's next victim choice — as a
// deterministic string, so two mounts can be compared byte for byte.
func mountFingerprint(fs *FS) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d appended=%d\n", fs.next, fs.appended)
	fmt.Fprintf(&b, "journal epoch=%d seq=%d chain=%d promise=%d\n",
		fs.jepoch, fs.jseq, fs.jchain, fs.jpromise)
	fmt.Fprintf(&b, "stats=%+v\n", fs.Stats())
	names := fs.Names()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "dir %s=%d\n", n, fs.dir[n])
	}
	inos := make([]Ino, 0, len(fs.imap))
	for ino := range fs.imap {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		fmt.Fprintf(&b, "imap %d=%d\n", ino, fs.imap[ino])
	}
	for _, s := range fs.sm.segs {
		for off, ref := range s.owners {
			if ref.ino != 0 {
				fmt.Fprintf(&b, "owner %d={%d,%d}\n", s.start+uint64(off), ref.ino, ref.idx)
			}
		}
	}
	for _, s := range fs.Segments() {
		fmt.Fprintf(&b, "seg %d state=%v live=%d dead=%d heated=%d journal=%v aff=%d\n",
			s.ID, s.State, s.LiveBlocks, s.DeadBlocks, s.HeatedBlocks, s.Journal, s.Affinity)
	}
	var cs CleanStats
	victims := fs.pickVictims(4, &cs)
	ids := make([]int, len(victims))
	for i, v := range victims {
		ids[i] = v.id
	}
	fmt.Fprintf(&b, "victims=%v\n", ids)
	return b.String()
}

// mountBothWays mounts the same image table-driven and with the
// full-walk fallback forced, requiring the table mount to actually use
// the table, and returns both.
func mountBothWays(t testing.TB, dev device.Dev, p Params) (tab, walk *FS) {
	t.Helper()
	tab, err := Mount(dev, p)
	if err != nil {
		t.Fatalf("table mount: %v", err)
	}
	if !tab.MountReport().TableMount {
		t.Fatalf("mount fell back to the walk: %q", tab.MountReport().Fallback)
	}
	pw := p
	pw.NoLivenessTable = true
	walk, err = Mount(dev, pw)
	if err != nil {
		t.Fatalf("walk mount: %v", err)
	}
	if walk.MountReport().TableMount {
		t.Fatal("NoLivenessTable mount used the table")
	}
	return tab, walk
}

// requireSameMount fails the test unless both mounts recovered
// byte-identical state.
func requireSameMount(t testing.TB, label string, tab, walk *FS) {
	t.Helper()
	ft, fw := mountFingerprint(tab), mountFingerprint(walk)
	if ft != fw {
		t.Fatalf("%s: table-driven and full-walk mounts diverge:\n--- table ---\n%s--- walk ---\n%s",
			label, ft, fw)
	}
}

// TestTableMountMatchesWalkMount drives mixed workloads — creates,
// multi-block writes, overwrites, deletes, renames, journaled syncs,
// checkpoints, cleaning and a heated file — and checks after each
// stage that a table-driven mount recovers exactly the state the
// full-walk fallback does.
func TestTableMountMatchesWalkMount(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 2048, p)
	check := func(label string) {
		t.Helper()
		tab, walk := mountBothWays(t, fs.Device(), p)
		requireSameMount(t, label, tab, walk)
	}

	inos := make([]Ino, 6)
	for i := range inos {
		var err error
		if inos[i], err = fs.Create(fmt.Sprintf("f%d", i), uint8(i%3)); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(inos[i], payload(byte(i), (1+i%3)*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil { // anchoring checkpoint, fresh table
		t.Fatal(err)
	}
	check("after first sync")

	for round := 0; round < 6; round++ {
		if err := fs.WriteFile(inos[round%4], payload(byte(10+round), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	check("after journaled overwrites")

	if err := fs.Delete("f3"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("f2", "g2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("fresh", 1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after dir churn in the tail")

	if _, err := fs.HeatFile("f1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after heat in the tail")

	if err := fs.Checkpoint(); err != nil { // table includes the heat
		t.Fatal(err)
	}
	check("after checkpoint")

	fs.Clean(fs.FreeSegments() + 2)
	check("after cleaning pass")
}

// TestTableMountDeterministicAcrossConcurrency mounts one image at
// several fan-out widths and requires byte-identical recovered state:
// the ino-sorted static split and the single liveness timestamp keep
// the mount a function of the image alone.
func TestTableMountDeterministicAcrossConcurrency(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 2048, p)
	for i := 0; i < 8; i++ {
		ino, err := fs.Create(fmt.Sprintf("f%d", i), uint8(i%2))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, disable := range []bool{false, true} {
		base := ""
		for _, workers := range []int{1, 2, 3, 4} {
			pc := p
			pc.Concurrency = workers
			pc.NoLivenessTable = disable
			m, err := Mount(fs.Device(), pc)
			if err != nil {
				t.Fatalf("mount at concurrency %d: %v", workers, err)
			}
			fp := mountFingerprint(m)
			if base == "" {
				base = fp
			} else if fp != base {
				t.Fatalf("mount state depends on concurrency %d (table disabled: %v)", workers, disable)
			}
		}
	}
}

// slotImageBytes reads the readable prefix of a checkpoint slot as one
// byte string.
func slotImageBytes(dev device.Dev, base uint64, blocks int) []byte {
	var out []byte
	for i := 0; i < blocks; i++ {
		data, err := dev.MRS(base + uint64(i))
		if err != nil {
			break
		}
		out = append(out, data...)
	}
	return out
}

// corruptTableByte locates the newest valid checkpoint slot's liveness
// table and flips one of its bytes (chosen by pick), rewriting the
// containing block. Returns false when no table is present to corrupt.
func corruptTableByte(t testing.TB, dev device.Dev, p Params, pick uint64) bool {
	t.Helper()
	probe, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	slot := probe.slotBlocks()
	var base uint64
	var best *ckptImage
	for _, b := range []uint64{0, uint64(slot)} {
		if ck, st := probe.readSlot(b); st == slotValid && (best == nil || ck.epoch > best.epoch) {
			best, base = ck, b
		}
	}
	if best == nil || !best.tablePresent {
		return false
	}
	img := slotImageBytes(dev, base, slot)
	total := binary.BigEndian.Uint64(img[:8])
	tlen := binary.BigEndian.Uint64(img[total+16 : total+24])
	off := total + 24 + pick%tlen // a byte inside the table payload
	blk := off / device.DataBytes
	block := append([]byte(nil), img[blk*device.DataBytes:(blk+1)*device.DataBytes]...)
	block[off%device.DataBytes] ^= 0xFF
	if err := dev.WriteBlocks(base+blk, [][]byte{block}); err != nil {
		t.Fatalf("rewriting slot block: %v", err)
	}
	return true
}

// TestTableCorruptionFallsBack flips a byte inside the checkpointed
// liveness table and expects the next mount to reject the table (its
// own checksum catches the damage without invalidating the slot), fall
// back to the full walk, and recover identical state.
func TestTableCorruptionFallsBack(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	for i := 0; i < 4; i++ {
		ino, err := fs.Create(fmt.Sprintf("f%d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	pw := p
	pw.NoLivenessTable = true
	before, err := Mount(fs.Device(), pw)
	if err != nil {
		t.Fatal(err)
	}
	want := mountFingerprint(before)
	if !corruptTableByte(t, fs.Device(), p, 17) {
		t.Fatal("no liveness table to corrupt")
	}
	m, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatalf("mount errored on a corrupt table (must fall back): %v", err)
	}
	rep := m.MountReport()
	if rep.TableMount || !strings.Contains(rep.Fallback, "checksum") {
		t.Fatalf("corrupt table not rejected: %+v", rep)
	}
	if got := mountFingerprint(m); got != want {
		t.Fatal("fallback mount diverged from the pre-corruption walk state")
	}
	// serofsck's view: the damage is a reported finding, not silence.
	jr, err := CheckJournal(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !jr.TablePresent || jr.TableValid || jr.Healthy() {
		t.Fatalf("fsck tolerated the corrupt table: %+v", jr)
	}
}

// TestForgedTableCountsMismatches forges a structurally valid table
// whose owners disagree with the inodes and expects CheckJournal to
// count the disagreements (while a mount, trusting the slot's internal
// consistency only as far as its cross-checks reach, is protected by
// the same fsck reporting).
func TestForgedTableCountsMismatches(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	a, _ := fs.Create("a", 0)
	b, _ := fs.Create("b", 0)
	if err := fs.WriteFile(a, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(b, payload(2, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Forge: swap the two files' data-block owners in the table, keep
	// the framing and checksum valid.
	probe, err := New(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	slot := probe.slotBlocks()
	var base uint64
	var best *ckptImage
	for _, bb := range []uint64{0, uint64(slot)} {
		if ck, st := probe.readSlot(bb); st == slotValid && (best == nil || ck.epoch > best.epoch) {
			best, base = ck, bb
		}
	}
	if best == nil || len(best.table) == 0 {
		t.Fatal("no table to forge")
	}
	img := slotImageBytes(fs.Device(), base, slot)
	total := binary.BigEndian.Uint64(img[:8])
	tlenAt := total + 16
	tlen := binary.BigEndian.Uint64(img[tlenAt : tlenAt+8])
	tbuf := append([]byte(nil), img[tlenAt+8:tlenAt+8+tlen]...)
	// Entries are {off u16, ino u64, idx i32}; walk the groups and swap
	// the ino of every data entry between a and b.
	off := 8
	groups := int(binary.BigEndian.Uint32(tbuf[4:8]))
	for g := 0; g < groups; g++ {
		count := int(binary.BigEndian.Uint16(tbuf[off+4:]))
		off += 6
		for i := 0; i < count; i++ {
			ino := Ino(binary.BigEndian.Uint64(tbuf[off+2:]))
			idx := int32(binary.BigEndian.Uint32(tbuf[off+10:]))
			if idx >= 0 {
				swap := a
				if ino == a {
					swap = b
				}
				binary.BigEndian.PutUint64(tbuf[off+2:], uint64(swap))
			}
			off += 14
		}
	}
	img2 := append([]byte(nil), img[:tlenAt+8]...)
	img2 = append(img2, tbuf...)
	img2 = binary.BigEndian.AppendUint64(img2, ckptSum(tbuf))
	blocks := make([][]byte, 0)
	for i := 0; i*device.DataBytes < len(img2); i++ {
		end := (i + 1) * device.DataBytes
		if end > len(img2) {
			end = len(img2)
		}
		blk := make([]byte, device.DataBytes)
		copy(blk, img2[i*device.DataBytes:end])
		blocks = append(blocks, blk)
	}
	if err := fs.Device().WriteBlocks(base, blocks); err != nil {
		t.Fatal(err)
	}
	jr, err := CheckJournal(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !jr.TableValid || jr.TableMismatches == 0 || jr.Healthy() {
		t.Fatalf("forged table not flagged: %+v", jr)
	}
}

// TestEmptyTableIsValid pins the empty-namespace shape: a checkpoint
// of an FS whose every file was deleted carries a zero-group table
// that must still count as valid — mounted via the table, healthy
// under fsck — not be conflated with a rejected one.
func TestEmptyTableIsValid(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.MountReport(); !rep.TableMount || rep.TableRefs != 0 {
		t.Fatalf("empty-namespace mount did not ride the empty table: %+v", rep)
	}
	jr, err := CheckJournal(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !jr.TablePresent || !jr.TableValid || !jr.Healthy() {
		t.Fatalf("empty table flagged as damage: %+v", jr)
	}
}

// TestCorruptTableLengthFallsBack corrupts the unchecksummed
// table-length field itself with a near-2^64 value: the mount must
// degrade to the walk (no overflow, no panic), exactly like any other
// table damage.
func TestCorruptTableLengthFallsBack(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	probe, err := New(fs.Device(), p)
	if err != nil {
		t.Fatal(err)
	}
	slot := probe.slotBlocks()
	var base uint64
	found := false
	for _, b := range []uint64{0, uint64(slot)} {
		if _, st := probe.readSlot(b); st == slotValid {
			base, found = b, true
		}
	}
	if !found {
		t.Fatal("no valid slot")
	}
	img := slotImageBytes(fs.Device(), base, slot)
	total := binary.BigEndian.Uint64(img[:8])
	binary.BigEndian.PutUint64(img[total+16:total+24], ^uint64(0)-17)
	// Rewrite every block the length field touches (it may straddle a
	// boundary).
	for blk := (total + 16) / device.DataBytes; blk <= (total+23)/device.DataBytes; blk++ {
		if err := fs.Device().WriteBlocks(base+blk, [][]byte{img[blk*device.DataBytes : (blk+1)*device.DataBytes]}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Mount(fs.Device(), p)
	if err != nil {
		t.Fatalf("mount errored on corrupt table length: %v", err)
	}
	rep := m.MountReport()
	if rep.TableMount || !strings.Contains(rep.Fallback, "exceeds slot") {
		t.Fatalf("corrupt table length not rejected cleanly: %+v", rep)
	}
}

// TestMountDoubleTornSlots is the regression test for the double-torn
// condition: a region where both slots hold damaged checkpoints must
// refuse to mount with ErrTornCheckpoint — never come up as an empty
// FS — while a genuinely never-checkpointed medium keeps the plain
// ErrBadCheckpoint shape.
func TestMountDoubleTornSlots(t *testing.T) {
	p := journalParams()
	fs := testFS(t, 1024, p)
	ino, _ := fs.Create("a", 0)
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil { // epoch 1 -> slot 0
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(2, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil { // epoch 2 -> slot 1
		t.Fatal(err)
	}
	// Tear both slots: garbage over each slot's first block, the shape
	// a mid-write crash or corruption leaves (nonzero, unparseable).
	slot := fs.slotBlocks()
	garbage := make([]byte, device.DataBytes)
	for i := range garbage {
		garbage[i] = 0xEE
	}
	for _, base := range []uint64{0, uint64(slot)} {
		if err := fs.Device().WriteBlocks(base, [][]byte{garbage}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Mount(fs.Device(), p)
	if !errors.Is(err, ErrTornCheckpoint) {
		t.Fatalf("double-torn mount: got %v, want ErrTornCheckpoint", err)
	}
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("ErrTornCheckpoint must wrap ErrBadCheckpoint: %v", err)
	}
	if _, err := CheckJournal(fs.Device(), p); !errors.Is(err, ErrTornCheckpoint) {
		t.Fatalf("fsck check: got %v, want ErrTornCheckpoint", err)
	}

	// One torn slot plus one valid slot is the ordinary crash shape and
	// must keep mounting via the survivor.
	fs2 := testFS(t, 1024, p)
	ino2, _ := fs2.Create("b", 0)
	if err := fs2.WriteFile(ino2, payload(3, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Device().WriteBlocks(uint64(fs2.slotBlocks()), [][]byte{garbage}); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(fs2.Device(), p); err != nil {
		t.Fatalf("single-torn mount must fall back to the valid slot: %v", err)
	}

	// Never formatted: both slots empty, the pristine shape.
	fresh := testFS(t, 512, p)
	_, err = Mount(fresh.Device(), p)
	if !errors.Is(err, ErrBadCheckpoint) || errors.Is(err, ErrTornCheckpoint) {
		t.Fatalf("pristine mount: got %v, want bare ErrBadCheckpoint", err)
	}
}

// TestMountTableSpeedup pins the mount-cost contract on a wide
// namespace: with the liveness table, mount reads no inodes and must
// be at least 3x cheaper in virtual time than the full walk of the
// same image.
func TestMountTableSpeedup(t *testing.T) {
	const files = 256
	p := Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 128,
		WritebackBlocks:  64,
		CheckpointEvery:  1 << 20,
		HeatAware:        true,
		ReserveSegments:  2,
	}
	fs := testFS(t, 8192, p)
	for i := 0; i < files; i++ {
		ino, err := fs.Create(fmt.Sprintf("f%04d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil { // fresh table, empty tail
		t.Fatal(err)
	}
	dev := fs.Device()
	t0 := dev.Clock().Now()
	tab, err := Mount(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	tableCost := dev.Clock().Now() - t0
	rep := tab.MountReport()
	if !rep.TableMount || rep.InodesRead != 0 {
		t.Fatalf("wide mount did not ride the table: %+v", rep)
	}
	pw := p
	pw.NoLivenessTable = true
	t1 := dev.Clock().Now()
	walk, err := Mount(dev, pw)
	if err != nil {
		t.Fatal(err)
	}
	walkCost := dev.Clock().Now() - t1
	if wr := walk.MountReport(); wr.InodesRead != files {
		t.Fatalf("walk mount read %d inodes, want %d", wr.InodesRead, files)
	}
	if walkCost < 3*tableCost {
		t.Fatalf("table mount %v vs walk %v: speedup below 3x", tableCost, walkCost)
	}
	requireSameMount(t, "wide image", tab, walk)
}

// TestCleanAfterChurnKeepsTableAndData churns a namespace until the
// log is nearly full, then cleans every segment explicitly. Some of
// that clean's inode rewrites run out of space, so its commit must
// roll back the moves whose inodes it could not rewrite: the
// checkpointed liveness table has to agree with the inodes, and after
// a remount, more churn, another clean and a second remount every
// file must read back exactly as last written.
func TestCleanAfterChurnKeepsTableAndData(t *testing.T) {
	const (
		devBlocks  = 8192
		files      = 256
		fileBlocks = 4
	)
	p := Params{
		SegmentBlocks:    256,
		CheckpointBlocks: 256,
		CheckpointEvery:  1 << 16,
		HeatAware:        true,
		ReserveSegments:  2,
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dev := quietDev(devBlocks)
			fs, err := New(dev, p)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			want := make([][]byte, files)
			inos := make([]Ino, files)
			for f := range want {
				if inos[f], err = fs.Create(fmt.Sprintf("f%03d", f), uint8(f%4)); err != nil {
					t.Fatal(err)
				}
				want[f] = make([]byte, fileBlocks*device.DataBytes)
				rng.Read(want[f])
				if err := fs.WriteFile(inos[f], want[f]); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
			churn := func(fs *FS, n int) {
				t.Helper()
				blk := make([]byte, device.DataBytes)
				for i := 1; i <= n; i++ {
					f, b := rng.Intn(files), rng.Intn(fileBlocks)
					rng.Read(blk)
					off := b * device.DataBytes
					if err := fs.Write(inos[f], uint64(off), blk); err != nil {
						t.Fatalf("write %d: %v", i, err)
					}
					copy(want[f][off:], blk)
					if i%32 == 0 {
						if err := fs.Sync(); err != nil {
							t.Fatalf("sync after write %d: %v", i, err)
						}
					}
				}
				if err := fs.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			cleanAll := func(fs *FS) {
				t.Helper()
				fs.Clean(len(fs.Segments()))
				for range 2 {
					if err := fs.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			readBack := func(fs *FS, label string) {
				t.Helper()
				bad := 0
				for f, w := range want {
					got, err := fs.ReadFile(inos[f])
					if err != nil || !bytes.Equal(got, w) {
						bad++
					}
				}
				if bad > 0 {
					t.Fatalf("%s: %d of %d files read back wrong", label, bad, files)
				}
			}

			churn(fs, 20000)
			cleanAll(fs)
			rep, err := CheckJournal(dev, p)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Healthy() {
				t.Fatalf("after clean: unhealthy journal, %d table mismatches:\n%s",
					rep.TableMismatches, rep.Summary())
			}
			readBack(fs, "after clean")

			fs, err = Mount(dev, p)
			if err != nil {
				t.Fatal(err)
			}
			churn(fs, 3000)
			cleanAll(fs)
			if fs, err = Mount(dev, p); err != nil {
				t.Fatal(err)
			}
			readBack(fs, "after second remount")
		})
	}
}
