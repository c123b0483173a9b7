package lfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sero/internal/device"
)

// Tests for the maintained metadata-commit indexes: the fresh-inode
// set a Sync reads instead of scanning the namespace, and the merged
// key orders a checkpoint encodes instead of sorting the namespace.
// Both must be invisible on the medium: every checkpoint must be
// byte-identical to the full-sort encoder they replaced.

// freshScan is the names \ imap scan fs.fresh replaces.
func freshScan(fs *FS) map[Ino]struct{} {
	out := make(map[Ino]struct{})
	for ino := range fs.names {
		if _, ok := fs.imap[ino]; !ok {
			out[ino] = struct{}{}
		}
	}
	return out
}

// refSlotImage is the checkpoint slot encoder as it was before the
// key orders were maintained: it collects and sorts every ino and
// every name, then frames, appends the table and pads in copies.
func refSlotImage(fs *FS, epoch, writtenAt, jstart uint64) []byte {
	var buf []byte
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint64(buf, writtenAt)
	buf = binary.BigEndian.AppendUint64(buf, uint64(fs.next))
	buf = binary.BigEndian.AppendUint64(buf, jstart)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fs.imap)))
	inos := make([]Ino, 0, len(fs.imap))
	for ino := range fs.imap {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		buf = binary.BigEndian.AppendUint64(buf, uint64(ino))
		buf = binary.BigEndian.AppendUint64(buf, fs.imap[ino])
	}
	names := make([]string, 0, len(fs.dir))
	for n := range fs.dir {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = append(buf, byte(len(n)))
		buf = append(buf, n...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(fs.dir[n]))
	}
	framed := binary.BigEndian.AppendUint64(nil, uint64(len(buf)))
	framed = append(framed, buf...)
	framed = binary.BigEndian.AppendUint64(framed, ckptSum(buf))
	var table []byte
	if fs.p.SegmentBlocks <= 0xFFFF {
		table = fs.appendTableLocked(nil)
	}
	if len(table) > 0 && len(framed)+8+len(table)+8 <= fs.slotBlocks()*device.DataBytes {
		framed = binary.BigEndian.AppendUint64(framed, uint64(len(table)))
		framed = append(framed, table...)
		framed = binary.BigEndian.AppendUint64(framed, ckptSum(table))
	} else {
		framed = binary.BigEndian.AppendUint64(framed, 0)
	}
	need := (len(framed) + device.DataBytes - 1) / device.DataBytes
	return append(framed, make([]byte, need*device.DataBytes-len(framed))...)
}

// commitChecker checks the indexes of one FS incarnation after every
// step of a history.
type commitChecker struct {
	t       *testing.T
	checked uint64 // last checkpoint epoch compared against the reference
	slots   int    // slots compared so far
}

// step checks fs.fresh against the scan it replaces and, when a new
// checkpoint is the last thing on the medium (no journal record or
// pending delta since), the slot it wrote against refSlotImage and the
// maintained orders against the sorted keys.
func (c *commitChecker) step(fs *FS, what string) {
	c.t.Helper()
	if want := freshScan(fs); !maps.Equal(fs.fresh, want) {
		c.t.Fatalf("%s: fresh %v, scan %v", what, slices.Sorted(maps.Keys(fs.fresh)), slices.Sorted(maps.Keys(want)))
	}
	if fs.ckptEpoch == c.checked || fs.jseq != 1 || fs.journalDirtyLocked() {
		return
	}
	c.checked = fs.ckptEpoch
	if got, want := fs.inoOrder.sorted, slices.Sorted(maps.Keys(fs.imap)); !slices.Equal(got, want) {
		c.t.Fatalf("%s: ino order %v, sorted keys %v", what, got, want)
	}
	if got, want := fs.nameOrder.sorted, slices.Sorted(maps.Keys(fs.dir)); !slices.Equal(got, want) {
		c.t.Fatalf("%s: name order %q, sorted keys %q", what, got, want)
	}
	base := fs.slotBase(fs.ckptEpoch)
	first, err := fs.dev.MRSTraced(nil, base)
	if err != nil {
		c.t.Fatalf("%s: reading slot: %v", what, err)
	}
	ck := fs.readSlot(base, first)
	if ck == nil {
		c.t.Fatalf("%s: epoch %d slot does not validate", what, fs.ckptEpoch)
	}
	want := refSlotImage(fs, fs.ckptEpoch, ck.writtenAt, ck.jstart)
	got, ok := ReadablePrefix(fs.dev, base, len(want)/device.DataBytes, 1)
	if !ok || !bytes.Equal(got, want) {
		c.t.Fatalf("%s: epoch %d slot differs from the full-sort encoding", what, fs.ckptEpoch)
	}
	c.slots++
}

// TestMetadataCommitIndexesProperty runs random histories of create,
// write, delete, rename, heat (of never-written and of written files),
// delete-then-recreate of one name, sync, checkpoint, crash and clean
// mount, checking the maintained indexes after every step.
func TestMetadataCommitIndexesProperty(t *testing.T) {
	p := smallParams()
	p.CheckpointEvery = 48 // syncs checkpoint too, not only Checkpoint()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := testFS(t, 4096, p)
			c := &commitChecker{t: t}
			pool := make([]string, 40)
			for i := range pool {
				pool[i] = fmt.Sprintf("n%02d", i)
			}
			pick := func(exist bool) (string, bool) {
				var cand []string
				for _, n := range pool {
					if _, ok := fs.dir[n]; ok == exist {
						cand = append(cand, n)
					}
				}
				if len(cand) == 0 {
					return "", false
				}
				return cand[rng.Intn(len(cand))], true
			}
			ok := func(what string, err error) {
				t.Helper()
				if err != nil && !errors.Is(err, ErrFileHeated) {
					t.Fatalf("%s: %v", what, err)
				}
			}
			for step := 0; step < 400; step++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 20:
					if n, found := pick(false); found {
						what = "create " + n
						_, err := fs.Create(n, uint8(rng.Intn(2)))
						ok(what, err)
					}
				case r < 45:
					if n, found := pick(true); found {
						what = "write " + n
						off := uint64(rng.Intn(3 * device.DataBytes))
						ok(what, fs.Write(fs.dir[n], off, payload(byte(step), 1+rng.Intn(2*device.DataBytes))))
					}
				case r < 55:
					if n, found := pick(true); found {
						what = "delete " + n
						ok(what, fs.Delete(n))
					}
				case r < 60:
					if n, found := pick(true); found {
						what = "delete+recreate " + n
						if err := fs.Delete(n); err == nil {
							_, err = fs.Create(n, 0)
							ok(what, err)
						} else {
							ok(what, err)
						}
					}
				case r < 68:
					from, f1 := pick(true)
					to, f2 := pick(false)
					if f1 && f2 {
						what = "rename " + from + " " + to
						ok(what, fs.Rename(from, to))
					}
				case r < 73:
					// Heat a never-written file: its first inode on the
					// log is the frozen one.
					var cand []string
					for _, ino := range slices.Sorted(maps.Keys(fs.fresh)) {
						if len(fs.dirty[ino]) == 0 {
							cand = append(cand, fs.names[ino])
						}
					}
					if len(cand) > 0 {
						n := cand[rng.Intn(len(cand))]
						what = "heat fresh " + n
						_, err := fs.HeatFile(n)
						ok(what, err)
					}
				case r < 75:
					if n, found := pick(true); found {
						what = "heat " + n
						_, err := fs.HeatFile(n)
						ok(what, err)
					}
				case r < 87:
					what = "sync"
					ok(what, fs.Sync())
				case r < 93:
					what = "checkpoint"
					ok(what, fs.Checkpoint())
				case r < 97:
					if fs.ckptEpoch == 0 {
						break // nothing to mount from yet
					}
					what = "crash+mount"
					m, err := Mount(fs.Device(), fs.Params())
					ok(what, err)
					fs, c = m, &commitChecker{t: t, checked: m.ckptEpoch, slots: c.slots}
				default:
					what = "sync+mount"
					ok(what, fs.Sync())
					m, err := Mount(fs.Device(), fs.Params())
					ok(what, err)
					fs, c = m, &commitChecker{t: t, checked: m.ckptEpoch, slots: c.slots}
				}
				if what != "" {
					c.step(fs, fmt.Sprintf("step %d (%s)", step, what))
				}
			}
			if c.slots < 10 {
				t.Fatalf("only %d checkpoint slots compared", c.slots)
			}
		})
	}
}

// TestCheckpointTableOmittedCounted checks the oversized-table
// fallback is counted: once the liveness table no longer fits its
// slot, every checkpoint increments CheckpointTableOmitted, and a
// mount of such a slot walks with Fallback "no table in slot".
func TestCheckpointTableOmittedCounted(t *testing.T) {
	p := smallParams() // 8-block (4 KiB) slots
	fs := testFS(t, 2048, p)
	ino, err := fs.Create("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ino, payload(1, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().CheckpointTableOmitted; got != 0 {
		t.Fatalf("%d tables omitted while the table fits", got)
	}
	// 32 files of 8 data blocks: ~290 live blocks, a ~4 KiB table
	// beside a ~1 KiB core payload.
	for i := range 32 {
		ino, err := fs.Create(fmt.Sprintf("f%03d", i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, payload(byte(i), 8*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
	}
	before := fs.Stats()
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	want := after.Checkpoints - before.Checkpoints
	if got := after.CheckpointTableOmitted; got != want || got == 0 {
		t.Fatalf("CheckpointTableOmitted %d, want %d", got, want)
	}
	m, err := Mount(fs.Device(), fs.Params())
	if err != nil {
		t.Fatal(err)
	}
	rep := m.MountReport()
	if rep.TableMount || rep.Fallback != "no table in slot" {
		t.Fatalf("mount report %+v, want fallback %q", rep, "no table in slot")
	}
	if len(m.Names()) != 33 {
		t.Fatalf("%d names after mount", len(m.Names()))
	}
}

// BenchmarkSync measures the host cost of one-block Syncs (one data
// block, its inode and a summary record each) over a namespace of
// the given width on a quiet 524,288-block sled with 256-block
// segments: a Sync's host work must grow with what is dirty, not with
// the number of files.
func BenchmarkSync(b *testing.B) {
	for _, files := range []int{2048, 100000} {
		b.Run(fmt.Sprint("files=", files), func(b *testing.B) {
			fs := testFS(b, 524288, Params{
				SegmentBlocks:    256,
				CheckpointBlocks: 32768,
				WritebackBlocks:  256,
				CheckpointEvery:  1 << 30,
				HeatAware:        true,
				ReserveSegments:  2,
			})
			inos := make([]Ino, files)
			for i := range inos {
				var err error
				if inos[i], err = fs.Create(fmt.Sprintf("f%06d", i), 0); err != nil {
					b.Fatal(err)
				}
				if err := fs.WriteFile(inos[i], payload(byte(i), device.DataBytes)); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Sync(); err != nil {
				b.Fatal(err)
			}
			data := payload(7, device.DataBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.WriteFile(inos[i%files], data); err != nil {
					b.Fatal(err)
				}
				if err := fs.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
