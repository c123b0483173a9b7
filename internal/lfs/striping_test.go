package lfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sero/internal/array"
	"sero/internal/device"
)

// Striped-array integration: the FS runs unchanged over an
// internal/array composite, and three properties must hold across
// widths. (1) The recovered durable state is a pure function of the
// logical workload — mount fingerprints are byte-identical for any
// geometry with the same logical capacity. (2) Crash consistency
// survives striping: a crash image rebuilt from the global committed
// data-write stream (parity regenerated by the array's write path —
// the write-hole resync assumption) mounts to an acked state at every
// block boundary, even after additionally losing one member. (3) A
// tamper of a heated line is healed in place by the incremental
// auditor's repair arm, reconstructing the truth from parity.

// quietArray builds a deterministic striped array: n members of
// memberBlocks blocks each, parity lost-member tolerance, stripe unit
// su.
func quietArray(t testing.TB, n, parity, su, memberBlocks int) *array.Array {
	t.Helper()
	arr, err := array.Build(n, device.QuietParams(memberBlocks), array.Params{StripeBlocks: su, Parity: parity})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// arrayAt rebuilds a fresh striped array holding exactly the first k
// committed logical block writes. The recorder's stream is the
// *global* data-write stream (the array observer translates member
// data writes back to logical addresses and never reports parity), so
// the replay regenerates every parity block through the ordinary write
// path — the resync a real array performs after a write-hole crash.
func (r *crashRecorder) arrayAt(t testing.TB, n, parity, su, memberBlocks, k int) *array.Array {
	t.Helper()
	arr := quietArray(t, n, parity, su, memberBlocks)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.writes[:k] {
		if err := arr.WriteBlocksTraced(nil, w.pba, [][]byte{w.data}); err != nil {
			t.Fatalf("replaying write %d to striped crash image: %v", w.pba, err)
		}
	}
	return arr
}

// stripedParams is the shared small-FS geometry of the striping tests.
func stripedParams() Params {
	return Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  8,
		CheckpointEvery:  48,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      2,
	}
}

// driveStripedWorkload runs a fixed mixed workload — multi-affinity
// creates, overwrites, a delete, a rename, journaled syncs and a
// cleaning pass — and returns the expected logical contents.
func driveStripedWorkload(t testing.TB, fs *FS) map[string][]byte {
	t.Helper()
	model := make(map[string][]byte)
	write := func(name string, off, nbytes int, seed byte) {
		ino, err := fs.Lookup(name)
		if err != nil {
			// Deleted earlier in the workload: recreate, so the mix
			// includes delete-then-recreate across sync intervals.
			if ino, err = fs.Create(name, 0); err != nil {
				t.Fatalf("recreate %s: %v", name, err)
			}
			model[name] = nil
		}
		data := payload(seed, nbytes)
		if err := fs.Write(ino, uint64(off), data); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		buf := model[name]
		for len(buf) < off+nbytes {
			buf = append(buf, 0)
		}
		copy(buf[off:], data)
		model[name] = buf
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, err := fs.Create(name, uint8(i%4)); err != nil {
			t.Fatal(err)
		}
		model[name] = nil
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		write(fmt.Sprintf("f%d", round%4), (round%3)*device.DataBytes/2,
			1+round%3*device.DataBytes, byte(round+1))
		write(fmt.Sprintf("f%d", (round+2)%4), 0, device.DataBytes, byte(0x40+round))
		if round == 3 {
			if err := fs.Delete("f3"); err != nil {
				t.Fatal(err)
			}
			delete(model, "f3")
		}
		if round == 5 {
			if err := fs.Rename("f2", "g2"); err != nil {
				t.Fatal(err)
			}
			model["g2"] = model["f2"]
			delete(model, "f2")
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fs.Clean(fs.FreeSegments() + 2)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return model
}

// TestMountFingerprintEqualAcrossWidths: one logical workload, three
// geometries of identical logical capacity (2304 blocks) — width 1
// (no parity), width 2 (mirror-grade parity), width 4 with one parity
// member. The recovered durable state must be byte-identical: striping
// is invisible above the block layer.
func TestMountFingerprintEqualAcrossWidths(t *testing.T) {
	const su = 16
	geoms := []struct{ n, parity, member int }{
		{1, 0, 2304},
		{2, 1, 2304},
		{4, 1, 768},
	}
	p := stripedParams()
	var fingerprints, liveFingerprints []string
	for _, g := range geoms {
		arr := quietArray(t, g.n, g.parity, su, g.member)
		if arr.Blocks() != 2304 {
			t.Fatalf("(%d,%d): logical capacity %d, want 2304", g.n, g.parity, arr.Blocks())
		}
		fs, err := New(arr, p)
		if err != nil {
			t.Fatalf("(%d,%d): %v", g.n, g.parity, err)
		}
		model := driveStripedWorkload(t, fs)
		for name, want := range model {
			ino, lerr := fs.Lookup(name)
			if lerr != nil {
				t.Fatalf("(%d,%d): %s: %v", g.n, g.parity, name, lerr)
			}
			got, rerr := fs.ReadFile(ino)
			if rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("(%d,%d): %s diverged: %v", g.n, g.parity, name, rerr)
			}
		}
		liveFingerprints = append(liveFingerprints, mountFingerprint(fs))
		mounted, err := Mount(arr, p)
		if err != nil {
			t.Fatalf("(%d,%d): remount: %v", g.n, g.parity, err)
		}
		fingerprints = append(fingerprints, mountFingerprint(mounted))
	}
	for i := 1; i < len(geoms); i++ {
		if liveFingerprints[i] != liveFingerprints[0] {
			t.Errorf("(%d,%d): live state diverges from width 1", geoms[i].n, geoms[i].parity)
		}
		if fingerprints[i] != fingerprints[0] {
			t.Errorf("(%d,%d): mounted state diverges from width 1", geoms[i].n, geoms[i].parity)
		}
	}
}

// TestCrashConsistencyStripedEveryBoundary is the every-boundary crash
// sweep over a 3-member, 1-parity array: every crash image (global
// data-write stream replayed, parity resynced) must mount to exactly
// the last acked state or the next one — and, sampled across the
// sweep, must STILL do so after one member of the rebuilt array is
// lost before the mount, the mount reading every surviving block
// through parity reconstruction.
func TestCrashConsistencyStripedEveryBoundary(t *testing.T) {
	const (
		members      = 3
		parity       = 1
		su           = 16
		memberBlocks = 1024 // logical capacity 2048
	)
	p := stripedParams()
	arr := quietArray(t, members, parity, su, memberBlocks)
	rec := recordWrites(arr)
	fs, err := New(arr, p)
	if err != nil {
		t.Fatal(err)
	}

	model := make(map[string][]byte)
	var acks []fsSnapshot
	write := func(name string, off, n int, seed byte) {
		ino, lerr := fs.Lookup(name)
		if lerr != nil {
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
	sync()
	for round := 0; round < 7; round++ {
		write(fmt.Sprintf("f%d", round%4), (round%3)*device.DataBytes/2,
			1+round%3*device.DataBytes, byte(round+1))
		write(fmt.Sprintf("f%d", (round+2)%4), 0, device.DataBytes, byte(0x40+round))
		if round == 4 {
			if derr := fs.Delete("f3"); derr != nil {
				t.Fatal(derr)
			}
			delete(model, "f3")
		}
		sync()
	}
	arr.SetWriteObserver(nil)

	total := rec.count()
	if total == 0 {
		t.Fatal("harness recorded no writes")
	}
	step := 2
	if testing.Short() {
		step = 7
	}
	if raceDetector {
		// The sweep replays O(total²/step) striped writes; see the
		// raw-device sweep for the rationale.
		step *= 5
	}
	degradedChecks := 0
	for k := 0; k <= total; k += step {
		lastAck := -1
		for i, a := range acks {
			if a.writes <= k {
				lastAck = i
			}
		}
		crashed := rec.arrayAt(t, members, parity, su, memberBlocks, k)
		mounted, merr := Mount(crashed, p)
		if lastAck < 0 {
			continue
		}
		if merr != nil {
			t.Fatalf("crash at write %d/%d (last ack %d): mount failed: %v",
				k, total, lastAck, merr)
		}
		ok := matchesSnapshot(mounted, acks[lastAck])
		if !ok && lastAck+1 < len(acks) {
			ok = matchesSnapshot(mounted, acks[lastAck+1])
		}
		if !ok {
			t.Fatalf("crash at write %d/%d: mounted state is neither ack %d nor ack %d",
				k, total, lastAck, lastAck+1)
		}
		// Sampled: crash AND lose a member. Parity was resynced during
		// the replay, so the degraded mount reconstructs every block it
		// needs from the two survivors — acked data survives the
		// compound failure.
		if k%(5*step) == 0 {
			degraded := rec.arrayAt(t, members, parity, su, memberBlocks, k)
			if ferr := degraded.FailMember(1); ferr != nil {
				t.Fatalf("crash at write %d/%d: fail member: %v", k, total, ferr)
			}
			dm, dmerr := Mount(degraded, p)
			if dmerr != nil {
				t.Fatalf("crash at write %d/%d + member loss: mount failed: %v", k, total, dmerr)
			}
			ok := matchesSnapshot(dm, acks[lastAck])
			if !ok && lastAck+1 < len(acks) {
				ok = matchesSnapshot(dm, acks[lastAck+1])
			}
			if !ok {
				t.Fatalf("crash at write %d/%d + member loss: mounted state is neither ack %d nor ack %d",
					k, total, lastAck, lastAck+1)
			}
			if degraded.ArrayStats().DegradedReads == 0 {
				t.Fatalf("crash at write %d/%d + member loss: mount never reconstructed", k, total)
			}
			degradedChecks++
		}
	}
	if degradedChecks == 0 {
		t.Fatal("sweep sampled no degraded mounts")
	}
}

// TestAuditorRepairsTamperFromParity wires the incremental auditor's
// repair arm to the array: a forged frame inside a heated line is
// detected by the background sweep, healed in place from cross-device
// parity, and the healed line re-verifies clean — self-healing with
// the tamper still on the evidence record.
func TestAuditorRepairsTamperFromParity(t *testing.T) {
	arr := quietArray(t, 3, 1, 16, 512)
	p := stripedParams()
	fs, err := New(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.Create("evidence", 0)
	if err != nil {
		t.Fatal(err)
	}
	data := payload(7, 5*device.DataBytes)
	if err := fs.WriteFile(ino, data); err != nil {
		t.Fatal(err)
	}
	res, err := fs.HeatFile("evidence")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Forge a data block inside the heated line, raw on the member
	// medium (the adversary does not announce writes).
	target := res.Line.Start + 2
	member, lpba := arr.Locate(target)
	if err := arr.MemberDevice(member).ForgeBlock(lpba, payload(0xAA, device.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if rep, verr := arr.VerifyLine(res.Line.Start); verr != nil || rep.OK {
		t.Fatalf("tamper not visible before audit: %+v err=%v", rep, verr)
	}

	fs.SetAuditRepairer(arr.RepairLine)
	for i := 0; i < 64; i++ {
		if _, more := fs.AuditStep(4); !more {
			break
		}
		if fs.Stats().AuditRepairs > 0 {
			break
		}
	}
	st := fs.Stats()
	if st.AuditFindings == 0 {
		t.Fatal("audit sweep never found the tamper")
	}
	if st.AuditRepairs != 1 || st.AuditRepairFailures != 0 {
		t.Fatalf("repairs=%d failures=%d, want one clean heal", st.AuditRepairs, st.AuditRepairFailures)
	}
	if len(fs.AuditFindings()) == 0 {
		t.Fatal("healed tamper left no evidence record")
	}
	rep, err := arr.VerifyLine(res.Line.Start)
	if err != nil || !rep.OK {
		t.Fatalf("line not healed: %+v err=%v", rep, err)
	}
	got, err := fs.ReadFile(ino)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("healed file content wrong: %v", err)
	}
	if arr.ArrayStats().RepairedLines != 1 {
		t.Fatalf("RepairedLines = %d", arr.ArrayStats().RepairedLines)
	}
}

// FuzzReplayStriped is FuzzReplay over a fuzz-chosen array width
// ({1,2,4}, parity 1 when striped): random op sequences, a crash at a
// fuzz-chosen block boundary, the image rebuilt as a fresh array with
// parity resynced — the mount must recover exactly an acked state;
// and when the geometry has parity, the same must hold after
// additionally losing one member.
func FuzzReplayStriped(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 2, 1, 2}, uint16(0), byte(0))
	f.Add([]byte{0, 8, 16, 1, 9, 2, 1, 17, 2, 25, 2}, uint16(20), byte(1))
	f.Add([]byte{0, 2, 1, 2, 3, 2, 4, 8, 2, 0, 2}, uint16(90), byte(2))
	f.Add([]byte{0, 1, 2, 64, 65, 2, 66, 2, 128, 130, 2}, uint16(300), byte(2))
	f.Add([]byte{0, 2, 4, 2, 0, 2, 3, 2}, uint16(65535), byte(1))
	f.Fuzz(func(t *testing.T, ops []byte, crash uint16, width byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		var members, parity int
		switch width % 3 {
		case 0:
			members, parity = 1, 0
		case 1:
			members, parity = 2, 1
		case 2:
			members, parity = 4, 1
		}
		const su = 16
		d := members - parity
		// ≥1024 logical blocks, member capacity stripe-aligned.
		memberBlocks := (1024 + d*su - 1) / (d * su) * su
		p := Params{
			SegmentBlocks:    16,
			CheckpointBlocks: 16,
			WritebackBlocks:  0,
			CheckpointEvery:  40,
			HeatAware:        true,
			ReserveSegments:  2,
		}
		arr := quietArray(t, members, parity, su, memberBlocks)
		rec := recordWrites(arr)
		fs, err := New(arr, p)
		if err != nil {
			t.Fatal(err)
		}

		names := []string{"a", "b", "c", "d"}
		model := make(map[string][]byte)
		var acks []fsSnapshot
		for i := 0; i < len(ops); i++ {
			b := ops[i]
			name := names[(b>>3)%4]
			switch b % 5 {
			case 0: // create
				if _, cerr := fs.Create(name, b%3); cerr == nil {
					model[name] = nil
				}
			case 1: // write one block somewhere in the first 6
				if _, ok := model[name]; !ok {
					continue
				}
				ino, lerr := fs.Lookup(name)
				if lerr != nil {
					t.Fatalf("lookup %s: %v", name, lerr)
				}
				blk := int(b>>5) % 6
				data := payload(b^0xA5, device.DataBytes)
				werr := fs.Write(ino, uint64(blk)*device.DataBytes, data)
				if errors.Is(werr, ErrFull) {
					continue
				}
				if werr != nil {
					t.Fatalf("write %s: %v", name, werr)
				}
				buf := model[name]
				for len(buf) < (blk+1)*device.DataBytes {
					buf = append(buf, 0)
				}
				copy(buf[blk*device.DataBytes:], data)
				model[name] = buf
			case 2: // sync: ack everything current
				serr := fs.Sync()
				if errors.Is(serr, ErrFull) {
					continue
				}
				if serr != nil {
					t.Fatalf("sync: %v", serr)
				}
				acks = append(acks, snapshotModel(model, rec.count()))
			case 3: // delete
				if derr := fs.Delete(name); derr == nil {
					delete(model, name)
				}
			case 4: // rename to the next name over
				to := names[(int(b>>3)+1)%4]
				if rerr := fs.Rename(name, to); rerr == nil {
					model[to] = model[name]
					delete(model, name)
				}
			}
		}
		arr.SetWriteObserver(nil)

		total := rec.count()
		k := int(crash) % (total + 1)
		lastAck := -1
		for i, a := range acks {
			if a.writes <= k {
				lastAck = i
			}
		}
		crashed := rec.arrayAt(t, members, parity, su, memberBlocks, k)
		mounted, merr := Mount(crashed, p)
		if lastAck < 0 {
			return // nothing acked: an unmountable medium is allowed
		}
		if merr != nil {
			t.Fatalf("width %d: crash at write %d/%d after ack %d: mount failed: %v",
				members, k, total, lastAck, merr)
		}
		ok := matchesSnapshot(mounted, acks[lastAck])
		if !ok && lastAck+1 < len(acks) {
			ok = matchesSnapshot(mounted, acks[lastAck+1])
		}
		if !ok {
			t.Fatalf("width %d: crash at write %d/%d: mounted state is neither ack %d nor ack %d",
				members, k, total, lastAck, lastAck+1)
		}
		if parity > 0 {
			degraded := rec.arrayAt(t, members, parity, su, memberBlocks, k)
			if ferr := degraded.FailMember(members - 1); ferr != nil {
				t.Fatal(ferr)
			}
			dm, dmerr := Mount(degraded, p)
			if dmerr != nil {
				t.Fatalf("width %d: crash at write %d/%d + member loss: mount failed: %v",
					members, k, total, dmerr)
			}
			ok := matchesSnapshot(dm, acks[lastAck])
			if !ok && lastAck+1 < len(acks) {
				ok = matchesSnapshot(dm, acks[lastAck+1])
			}
			if !ok {
				t.Fatalf("width %d: crash at write %d/%d + member loss: mounted state is neither ack %d nor ack %d",
					members, k, total, lastAck, lastAck+1)
			}
		}
	})
}
