package lfs

import (
	"bytes"
	"errors"
	"testing"

	"sero/internal/device"
)

// FuzzFSOps drives random create/write/sync/clean/mount sequences
// against the file system and checks the two durability invariants of
// the write path: the checkpoint must never become unreadable, and no
// data acked by a successful Sync may be lost — across group commits,
// cleaning passes and remounts alike.
func FuzzFSOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})                                  // create, write, sync, clean
	f.Add([]byte{0, 1, 1, 2, 3, 0, 4, 1, 1, 1, 2, 3})          // mixed with writes after sync
	f.Add([]byte{0, 64, 1, 65, 130, 2, 3, 0, 16, 1, 81, 2, 3}) // two files, remounts
	f.Add([]byte{0, 1, 2, 2, 2, 3, 3, 3, 1, 40, 2, 3})         // clean/mount heavy
	f.Fuzz(func(t *testing.T, ops []byte) {
		fuzzFSOps(t, ops, false, true)
	})
}

// FuzzFSHeatOps is FuzzFSOps with a sixth op that heats a file and
// syncs: a heated file must then refuse writes with ErrFileHeated. The
// input's length parity picks heat-aware (clustered heat segments) or
// heat-oblivious (in-place lines) placement.
func FuzzFSHeatOps(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 4, 1, 0, 8, 9, 13, 5, 9}) // heat, write refused, remount
	f.Add([]byte{0, 1, 5, 8, 9, 65, 13, 3, 1, 4, 1})   // heat-oblivious heats and a clean
	f.Fuzz(func(t *testing.T, ops []byte) {
		fuzzFSOps(t, ops, true, len(ops)%2 == 0)
	})
}

// fuzzFSOps runs one op stream of FuzzFSOps, with the heat op when
// heatOps is set, on a heat-aware or heat-oblivious file system.
func fuzzFSOps(t *testing.T, ops []byte, heatOps, heatAware bool) {
	if len(ops) > 64 {
		ops = ops[:64]
	}
	dev := device.New(device.QuietParams(1024))
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 16,
		WritebackBlocks:  0, // whole-segment group commit
		HeatAware:        heatAware,
		ReserveSegments:  2,
		Concurrency:      2,
	}
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"a", "b", "c", "d"}
	model := make(map[string][]byte) // current expected contents
	acked := make(map[string][]byte) // contents as of the last checkpoint
	heated := make(map[string]bool)  // files heated, durably or not
	// unsure holds files heated since the last ack whose heat may
	// or may not have reached a checkpoint: a remount may show the
	// acked file or the heated one, and the model adopts what it
	// shows.
	unsure := make(map[string]bool)
	synced := false
	ack := func() {
		synced = true
		acked = make(map[string][]byte, len(model))
		for n, c := range model {
			acked[n] = append([]byte(nil), c...)
		}
		clear(unsure)
	}
	// checkpointed records a checkpoint the model did not ask for:
	// it persisted bare inodes of files created since the last
	// sync — their existence (with empty durable content) survives
	// a remount even though their buffered data does not — and
	// every heated file's frozen inode.
	checkpointed := func() {
		synced = true
		for n := range model {
			if _, ok := acked[n]; !ok {
				acked[n] = nil
			}
		}
		for n := range heated {
			acked[n] = append([]byte(nil), model[n]...)
			delete(unsure, n)
		}
	}
	// sync acks everything current on success. A Sync that fails
	// with ErrFull may still have checkpointed while securing
	// space, before it flushed anything.
	sync := func(what string) {
		before := fs.Stats().Checkpoints
		serr := fs.Sync()
		switch {
		case serr == nil:
			ack()
		case errors.Is(serr, ErrFull):
			if fs.Stats().Checkpoints != before {
				checkpointed()
			}
		default:
			t.Fatalf("%s: %v", what, serr)
		}
	}

	extend := func(buf []byte, n int) []byte {
		for len(buf) < n {
			buf = append(buf, 0)
		}
		return buf
	}
	nops := byte(5)
	if heatOps {
		nops = 6
	}
	for i := 0; i < len(ops); i++ {
		b := ops[i]
		name := names[(b>>3)%4]
		switch b % nops {
		case 0: // create
			_, cerr := fs.Create(name, b%3)
			if _, exists := model[name]; exists {
				if !errors.Is(cerr, ErrExists) {
					t.Fatalf("duplicate create of %s: %v", name, cerr)
				}
			} else if cerr == nil {
				model[name] = nil
			} else {
				t.Fatalf("create %s: %v", name, cerr)
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
			data := payload(b^0x5A, device.DataBytes)
			werr := fs.Write(ino, uint64(blk)*device.DataBytes, data)
			if heated[name] {
				if !errors.Is(werr, ErrFileHeated) {
					t.Fatalf("write to heated %s: %v", name, werr)
				}
				continue
			}
			if errors.Is(werr, ErrFull) {
				continue
			}
			if werr != nil {
				t.Fatalf("write %s: %v", name, werr)
			}
			buf := extend(model[name], (blk+1)*device.DataBytes)
			copy(buf[blk*device.DataBytes:], data)
			model[name] = buf
		case 2:
			sync("sync")
		case 3: // clean
			cs := fs.Clean(fs.FreeSegments() + 1 + int(b>>6))
			if cs.Checkpointed {
				checkpointed()
			}
		case 4: // remount: unsynced data may die, acked data may not
			if !synced {
				continue
			}
			fs2, merr := Mount(dev, p)
			if merr != nil {
				t.Fatalf("checkpoint corrupt after ops %v: %v", ops[:i+1], merr)
			}
			fs = fs2
			next := make(map[string][]byte, len(acked))
			for n, c := range acked {
				ino, lerr := fs.Lookup(n)
				if lerr != nil {
					t.Fatalf("acked file %s lost across mount: %v", n, lerr)
				}
				in, serr := fs.Stat(ino)
				got, rerr := fs.ReadFile(ino)
				if serr != nil || rerr != nil {
					t.Fatalf("acked file %s unreadable across mount: %v %v", n, serr, rerr)
				}
				if unsure[n] && in.Heated() && bytes.Equal(got, model[n]) {
					next[n] = got // the heat reached a checkpoint
					continue
				}
				if in.Heated() != heated[n] && !unsure[n] || !bytes.Equal(got, c) {
					t.Fatalf("acked state of %s lost across mount", n)
				}
				if !in.Heated() {
					delete(heated, n)
				}
				next[n] = append([]byte(nil), c...)
			}
			for n := range heated {
				if _, ok := next[n]; !ok {
					delete(heated, n)
				}
			}
			model = next
			ack()
		case 5: // heat, then sync so the frozen file is acked
			before := fs.Stats().Checkpoints
			_, herr := fs.HeatFile(name)
			if fs.Stats().Checkpoints != before {
				checkpointed() // before this heat: it is not in it
			}
			switch _, exists := model[name]; {
			case !exists:
				if !errors.Is(herr, ErrNotFound) {
					t.Fatalf("heat of missing %s: %v", name, herr)
				}
			case heated[name]:
				if !errors.Is(herr, ErrFileHeated) {
					t.Fatalf("second heat of %s: %v", name, herr)
				}
			case herr == nil:
				heated[name] = true
				unsure[name] = true
			case !errors.Is(herr, ErrFull):
				t.Fatalf("heat %s: %v", name, herr)
			}
			sync("sync after heat")
		}
	}
	// Whatever survived the op stream must read back exactly.
	for n, c := range model {
		ino, lerr := fs.Lookup(n)
		if lerr != nil {
			t.Fatalf("file %s vanished: %v", n, lerr)
		}
		got, rerr := fs.ReadFile(ino)
		if rerr != nil || !bytes.Equal(got, c) {
			t.Fatalf("content of %s diverged: %v", n, rerr)
		}
	}
}

// FuzzReplay drives random op sequences — create, write, delete,
// rename, journaled syncs — against a crash-recorded device, then
// kills the medium at a fuzz-chosen block boundary and mounts the
// crash image. The roll-forward invariants: a mount after any acked
// Sync must never error (a torn summary tail is the *expected* shape
// of a crash, not a failure), and the recovered state must be exactly
// one of the acked states — never a torn mixture.
func FuzzReplay(f *testing.F) {
	// Seed corpus: checkpoint-only, journal tails of several shapes,
	// dir-op churn, and crash points near the start, middle and end.
	f.Add([]byte{0, 1, 2, 1, 2, 1, 2}, uint16(0))
	f.Add([]byte{0, 8, 16, 1, 9, 2, 1, 17, 2, 25, 2}, uint16(20))
	f.Add([]byte{0, 2, 1, 2, 3, 2, 4, 8, 2, 0, 2}, uint16(90))
	f.Add([]byte{0, 1, 2, 64, 65, 2, 66, 2, 128, 130, 2}, uint16(300))
	f.Add([]byte{0, 2, 4, 2, 0, 2, 3, 2}, uint16(65535))
	f.Fuzz(func(t *testing.T, ops []byte, crash uint16) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		const devBlocks = 1024
		p := Params{
			SegmentBlocks:    16,
			CheckpointBlocks: 16,
			WritebackBlocks:  0,
			CheckpointEvery:  40,
			HeatAware:        true,
			ReserveSegments:  2,
		}
		dev := quietDev(devBlocks)
		rec := recordWrites(dev)
		fs, err := New(dev, p)
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
		dev.SetWriteObserver(nil)

		total := rec.count()
		k := int(crash) % (total + 1)
		lastAck := -1
		for i, a := range acks {
			if a.writes <= k {
				lastAck = i
			}
		}
		crashed := rec.deviceAt(t, devBlocks, k)
		mounted, merr := Mount(crashed, p)
		if lastAck < 0 {
			return // nothing acked: an unmountable medium is allowed
		}
		if merr != nil {
			t.Fatalf("crash at write %d/%d after ack %d: mount failed: %v",
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
		// The full-walk fallback must recover byte-identical state from
		// the same crash image.
		walked, werr := mount(crashed, p, false)
		if werr != nil {
			t.Fatalf("crash at write %d/%d: walk mount failed: %v", k, total, werr)
		}
		walkFP := mountFingerprint(walked)
		if mountFingerprint(mounted) != walkFP {
			t.Fatalf("crash at write %d/%d: table mount diverges from walk mount", k, total)
		}
		// Mutate the checkpointed liveness table (fuzz-chosen byte):
		// corruption must always degrade the mount to the walk — the
		// table's own checksum rejects it — never corrupt liveness.
		if corruptTableByte(t, crashed, p, uint64(crash)*31+uint64(len(ops))) {
			remounted, rerr := Mount(crashed, p)
			if rerr != nil {
				t.Fatalf("crash at write %d/%d: mount errored on mutated table: %v", k, total, rerr)
			}
			if remounted.MountReport().TableMount {
				t.Fatalf("crash at write %d/%d: mutated table was still adopted", k, total)
			}
			if mountFingerprint(remounted) != walkFP {
				t.Fatalf("crash at write %d/%d: mutated-table mount corrupted liveness", k, total)
			}
		}
	})
}
