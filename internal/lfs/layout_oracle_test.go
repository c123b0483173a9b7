package lfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strings"
	"testing"

	"sero/internal/device"
	"sero/internal/sim"
	"sero/internal/trace"
)

// logLayoutHash pins where the log puts every block under one seeded
// workload, run heat-aware and heat-oblivious at Concurrency 1 and 4:
// churn that forces inline cleaning under ReserveSegments, explicit
// Clean and CleanStep passes, journaled syncs that re-anchor and a
// delta too large for one record, heated files in clustered and
// in-place lines, a fill to ErrFull and a remount. The digest covers
// the medium image, Stats, Segments, MountReport, the canonical span
// stream and the virtual clock, so any change to a block's position, a
// segment's state, a counter, a span or a virtual time moves it.
const logLayoutHash = "a636d4171bff0d4d2b148da91bee73f704c44a54daf6d44d343bb5160d4e5581"

func TestLogLayoutOracle(t *testing.T) {
	digest := func() string {
		h := sha256.New()
		for _, heatAware := range []bool{true, false} {
			for _, conc := range []int{1, 4} {
				fmt.Fprintf(h, "run heat=%v conc=%d\n", heatAware, conc)
				layoutOracleRun(t, heatAware, conc, h)
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	first := digest()
	if again := digest(); again != first {
		t.Fatalf("two runs gave digests %s and %s", first, again)
	}
	if first != logLayoutHash {
		t.Fatalf("log layout hash %s, want %s", first, logLayoutHash)
	}
}

// layoutOracleFold folds the file system's observable state into h.
func layoutOracleFold(fs *FS, what string, h hash.Hash) {
	fmt.Fprintf(h, "%s stats %+v\n", what, fs.Stats())
	fmt.Fprintf(h, "%s segs %+v\n", what, fs.Segments())
	fmt.Fprintf(h, "%s mount %+v\n", what, fs.MountReport())
	fmt.Fprintf(h, "%s clock %d\n", what, fs.now())
}

// layoutOracleErr folds an operation's outcome into h, failing the
// test on any error the workload does not expect.
func layoutOracleErr(t *testing.T, h hash.Hash, what string, err error, allowed ...error) {
	t.Helper()
	fmt.Fprintf(h, "%s %v\n", what, err)
	if err == nil {
		return
	}
	for _, a := range allowed {
		if errors.Is(err, a) {
			return
		}
	}
	t.Fatalf("%s: %v", what, err)
}

func layoutOracleRun(t *testing.T, heatAware bool, conc int, h hash.Hash) {
	t.Helper()
	const blocks = 1024
	dev := device.New(device.QuietParams(blocks))
	tr := trace.New(trace.DefaultBuffer)
	dev.SetTracer(tr)
	p := Params{
		SegmentBlocks:    16,
		CheckpointBlocks: 64,
		WritebackBlocks:  4,
		CheckpointEvery:  96,
		HeatAware:        heatAware,
		ReserveSegments:  2,
		Concurrency:      conc,
	}
	fs, err := New(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(26)

	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d", i)
		_, err := fs.Create(names[i], uint8(i%4))
		layoutOracleErr(t, h, "create", err)
	}
	layoutOracleErr(t, h, "sync", fs.Sync())
	// Nothing is full yet, so there is nothing to clean.
	fmt.Fprintf(h, "clean empty %+v\n", fs.Clean(len(fs.Segments())))

	// Long names make a delta too large for one summary record: the
	// sync falls back to a checkpoint.
	for i := range names {
		to := names[i] + "-" + strings.Repeat("x", 200)
		layoutOracleErr(t, h, "rename", fs.Rename(names[i], to))
		names[i] = to
		for j := 0; j < 3; j++ {
			_, err := fs.Create(fmt.Sprintf("%s-%d", to, j), uint8(j))
			layoutOracleErr(t, h, "create", err)
		}
	}
	layoutOracleErr(t, h, "sync", fs.Sync())
	layoutOracleFold(fs, "long names", h)

	// Churn: overwrites, deletes and renames over a small namespace,
	// with journaled syncs, until the dead space forces inline cleans.
	for op := 0; op < 900; op++ {
		i := rng.Intn(len(names))
		switch k := rng.Intn(20); {
		case k == 0:
			layoutOracleErr(t, h, "delete", fs.Delete(names[i]))
			_, err := fs.Create(names[i], uint8(rng.Intn(4)))
			layoutOracleErr(t, h, "recreate", err)
		case k == 1:
			to := names[i] + "r"
			layoutOracleErr(t, h, "rename", fs.Rename(names[i], to))
			names[i] = to
		default:
			ino, err := fs.Lookup(names[i])
			layoutOracleErr(t, h, "lookup", err)
			n := 1 + rng.Intn(3)
			off := uint64(rng.Intn(6)) * device.DataBytes
			layoutOracleErr(t, h, "write", fs.Write(ino, off, payload(byte(op), n*device.DataBytes)))
		}
		if op%7 == 6 {
			layoutOracleErr(t, h, "sync", fs.Sync(), ErrFull)
		}
	}
	layoutOracleErr(t, h, "sync", fs.Sync(), ErrFull)
	layoutOracleFold(fs, "churn", h)

	// Explicit cleaning: a whole pass, then cooperative rounds.
	fmt.Fprintf(h, "clean %+v\n", fs.Clean(fs.FreeSegments()+6))
	for {
		cs, more := fs.CleanStep(fs.FreeSegments() + 2)
		fmt.Fprintf(h, "step %+v %v\n", cs, more)
		if !more {
			break
		}
	}
	layoutOracleErr(t, h, "sync", fs.Sync(), ErrFull)
	layoutOracleFold(fs, "clean", h)

	// Heat files of 1 to 7 blocks (lines of 1 to 8 blocks), so lines
	// are aligned and the heat (or data) segment fills and rotates.
	for i, sz := range []int{3, 1, 5, 2, 7, 4, 6, 3} {
		name := fmt.Sprintf("h%d", i)
		ino, err := fs.Create(name, uint8(i%4))
		layoutOracleErr(t, h, "create", err)
		layoutOracleErr(t, h, "write", fs.WriteFile(ino, payload(byte(0x80+i), sz*device.DataBytes)))
		res, err := fs.HeatFile(name)
		layoutOracleErr(t, h, "heat", err)
		fmt.Fprintf(h, "heated %s %+v\n", name, res)
		layoutOracleErr(t, h, "write heated", fs.Write(ino, 0, payload(1, 1)), ErrFileHeated)
	}
	layoutOracleErr(t, h, "sync", fs.Sync(), ErrFull)
	layoutOracleFold(fs, "heat", h)

	// Fill the log to ErrFull, then remount from what is on the medium.
	for i := 0; ; i++ {
		ino, err := fs.Create(fmt.Sprintf("g%03d", i), uint8(i%4))
		layoutOracleErr(t, h, "create", err)
		layoutOracleErr(t, h, "write", fs.WriteFile(ino, payload(byte(i), 4*device.DataBytes)))
		err = fs.Sync()
		layoutOracleErr(t, h, "fill sync", err, ErrFull)
		if err != nil {
			break
		}
	}
	// At the edge of full: small syncs, checkpoints, heats and cleans
	// that cannot reach their target, where rotations find no free
	// segment.
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("g%03d", i)
		ino, err := fs.Lookup(name)
		layoutOracleErr(t, h, "lookup", err)
		layoutOracleErr(t, h, "edge write", fs.Write(ino, 0, payload(byte(i), device.DataBytes)))
		layoutOracleErr(t, h, "edge sync", fs.Sync(), ErrFull)
		switch i % 4 {
		case 1:
			layoutOracleErr(t, h, "edge checkpoint", fs.Checkpoint(), ErrFull)
		case 2:
			_, err := fs.HeatFile(name)
			layoutOracleErr(t, h, "edge heat", err, ErrFull)
		case 3:
			fmt.Fprintf(h, "edge clean %+v\n", fs.Clean(len(fs.Segments())))
			cs, more := fs.CleanStep(len(fs.Segments()))
			fmt.Fprintf(h, "edge step %+v %v\n", cs, more)
		}
	}
	layoutOracleFold(fs, "full", h)
	h.Write(dev.SaveImage())

	// The remount's outcome is part of the digest, an error included.
	m, err := Mount(dev, p)
	fmt.Fprintf(h, "mount %v\n", err)
	if err == nil {
		layoutOracleFold(m, "mounted", h)
		for _, name := range slices.Sorted(slices.Values(m.Names())) {
			ino, err := m.Lookup(name)
			layoutOracleErr(t, h, "lookup", err)
			data, err := m.ReadFile(ino)
			layoutOracleErr(t, h, "read", err)
			fmt.Fprintf(h, "file %s %x\n", name, sha256.Sum256(data))
		}
		layoutOracleFold(m, "read", h)
	}

	if tr.Dropped() != 0 {
		t.Fatalf("workload overflowed the span ring (%d dropped)", tr.Dropped())
	}
	for _, s := range tr.Spans() {
		fmt.Fprintf(h, "span %+v\n", s)
	}
}
