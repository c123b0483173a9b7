package device

import (
	"bytes"
	"errors"
	"testing"
)

func TestWriteBlocksRoundTrip(t *testing.T) {
	d := testDevice(t, 64)
	blocks := [][]byte{pattern(1), pattern(2), pattern(3), pattern(4)}
	if err := d.WriteBlocksTraced(nil, 8, blocks); err != nil {
		t.Fatal(err)
	}
	for i, want := range blocks {
		got, err := d.MRS(8 + uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupted", 8+i)
		}
	}
	st := d.Stats()
	if st.MagneticWrites != 4 {
		t.Fatalf("MagneticWrites %d, want 4", st.MagneticWrites)
	}
	// Bad payload size and out-of-range runs are refused.
	if err := d.WriteBlocksTraced(nil, 0, [][]byte{make([]byte, 10)}); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := d.WriteBlocksTraced(nil, 62, blocks); err == nil {
		t.Fatal("run beyond device accepted")
	}
	if err := d.WriteBlocksTraced(nil, 0, nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

// refusalDevice builds a 64-block device with a written block at
// 8..11 and 40..42, a heated line at 16..19 (record block 16, members
// 17..19) and a bad block at 24 — the refusal cases the checked
// magnetic commands must share.
func refusalDevice(t *testing.T) *Device {
	t.Helper()
	d := testDevice(t, 64)
	if err := d.WriteBlocksTraced(nil, 8, [][]byte{pattern(1), pattern(2), pattern(3), pattern(4)}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBlocksTraced(nil, 40, [][]byte{pattern(5), pattern(6), pattern(7)}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteLineBatch(16, 2, [][]byte{pattern(8), pattern(9), pattern(10)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HeatLine(16, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.MarkBad(24); err != nil {
		t.Fatal(err)
	}
	return d
}

// mediumImages returns every block's raw frame image.
func mediumImages(d *Device) [][]byte {
	out := make([][]byte, d.Blocks())
	for pba := range out {
		out[pba] = make([]byte, PhysicalBytes)
		d.med.MRBImage(d.dotBase(uint64(pba)), out[pba])
	}
	return out
}

// TestWriteBlocksRefusalWritesNothing runs every refusal through every
// checked magnetic write entry point: each must give the same sentinel
// (none for a bad payload length), leave every block's bits unchanged
// and count no magnetic write. A refused run writes nothing, even its
// members that would have passed the checks.
func TestWriteBlocksRefusalWritesNothing(t *testing.T) {
	type refusal struct {
		name   string
		start  uint64 // a three-block run
		short  bool   // the run's middle payload is 10 bytes
		target error
	}
	refusals := []refusal{
		{name: "heated-line-member", start: 18, target: ErrHeatedBlock},
		{name: "bad-block", start: 23, target: ErrBadBlock},
		{name: "out-of-range", start: 62, target: ErrOutOfRange},
		{name: "payload-length", start: 8, short: true},
	}
	run := func(r refusal) [][]byte {
		blocks := [][]byte{pattern(20), pattern(21), pattern(22)}
		if r.short {
			blocks[1] = make([]byte, 10)
		}
		return blocks
	}
	writers := []struct {
		name  string
		moves bool // sources are read by the device, so a payload is always whole
		write func(d *Device, r refusal) error
	}{
		{name: "MWS", write: func(d *Device, r refusal) error {
			// A single block: the run's member the refusal names.
			pba, data := r.start, pattern(20)
			switch {
			case r.short:
				data = make([]byte, 10)
			case r.target == ErrBadBlock:
				pba = 24
			case r.target == ErrOutOfRange:
				pba = 64
			}
			return d.MWS(pba, data)
		}},
		{name: "WriteBlocks", write: func(d *Device, r refusal) error {
			return d.WriteBlocksTraced(nil, r.start, run(r))
		}},
		{name: "WriteRunsFanned", write: func(d *Device, r refusal) error {
			return d.WriteRunsFannedTraced(nil, []WriteRun{{Start: r.start, Blocks: run(r)}}, 2)[0]
		}},
		{name: "MoveGroups", moves: true, write: func(d *Device, r refusal) error {
			var group []BlockMove
			for i := uint64(0); i < 3; i++ {
				group = append(group, BlockMove{Src: 40 + i, Dst: r.start + i})
			}
			res := d.MoveGroups([][]BlockMove{group}, 1)[0]
			if res.Completed != 0 {
				t.Errorf("MoveGroups completed %d moves of a refused run", res.Completed)
			}
			return res.Err
		}},
	}
	for _, w := range writers {
		for _, r := range refusals {
			if w.moves && r.short {
				continue
			}
			t.Run(w.name+"/"+r.name, func(t *testing.T) {
				d := refusalDevice(t)
				before, writes := mediumImages(d), d.Stats().MagneticWrites
				err := w.write(d, r)
				if err == nil {
					t.Fatal("refusal accepted")
				}
				if r.target != nil && !errors.Is(err, r.target) {
					t.Fatalf("error %v, want %v", err, r.target)
				}
				if got := d.Stats().MagneticWrites; got != writes {
					t.Fatalf("MagneticWrites %d -> %d", writes, got)
				}
				for pba, img := range mediumImages(d) {
					if !bytes.Equal(img, before[pba]) {
						t.Fatalf("refused write changed block %d", pba)
					}
				}
			})
		}
	}
}

// TestReadRefusals runs the read refusals through both checked
// magnetic read entry points: each must give the same sentinel, return
// no payload and count no magnetic read.
func TestReadRefusals(t *testing.T) {
	refusals := []struct {
		name   string
		pba    uint64
		target error
	}{
		{"heated-block", 16, ErrHeatedBlock},
		{"bad-block", 24, ErrBadBlock},
		{"out-of-range", 64, ErrOutOfRange},
	}
	readers := []struct {
		name string
		read func(d *Device, pba uint64) ([]byte, error)
	}{
		{"MRS", (*Device).MRS},
		{"ReadBlocksFanned", func(d *Device, pba uint64) ([]byte, error) {
			bufs, errs := d.ReadBlocksFanned([]uint64{pba}, 2)
			return bufs[0], errs[0]
		}},
	}
	for _, rd := range readers {
		for _, r := range refusals {
			t.Run(rd.name+"/"+r.name, func(t *testing.T) {
				d := refusalDevice(t)
				reads := d.Stats().MagneticReads
				buf, err := rd.read(d, r.pba)
				if !errors.Is(err, r.target) {
					t.Fatalf("error %v, want %v", err, r.target)
				}
				if buf != nil {
					t.Fatal("refused read returned a payload")
				}
				if got := d.Stats().MagneticReads; got != reads {
					t.Fatalf("MagneticReads %d -> %d", reads, got)
				}
			})
		}
	}
}

// TestWriteBlocksBatchedCheaper is the device half of the write-path
// acceptance criterion: a contiguous run written as one command pays
// the servo settle once, where block-at-a-time pays it per block.
func TestWriteBlocksBatchedCheaper(t *testing.T) {
	const n = 16
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = pattern(byte(i))
	}

	serial := testDevice(t, 64)
	t0 := serial.Clock().Now()
	for i := range blocks {
		if err := serial.MWS(uint64(i), blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	serialNS := serial.Clock().Now() - t0

	batched := testDevice(t, 64)
	t0 = batched.Clock().Now()
	if err := batched.WriteBlocksTraced(nil, 0, blocks); err != nil {
		t.Fatal(err)
	}
	batchedNS := batched.Clock().Now() - t0

	if batchedNS*2 > serialNS {
		t.Fatalf("batched %v not ≤ half of serial %v", batchedNS, serialNS)
	}
	// Same bits either way.
	for i := range blocks {
		got, err := batched.MRS(uint64(i))
		if err != nil || !bytes.Equal(got, blocks[i]) {
			t.Fatalf("batched write corrupted block %d: %v", i, err)
		}
	}
}

func TestWriteLineBatchHeatVerify(t *testing.T) {
	d := testDevice(t, 64)
	blocks := [][]byte{pattern(1), pattern(2), pattern(3)}
	if err := d.WriteLineBatch(8, 2, blocks); err != nil {
		t.Fatal(err)
	}
	if _, err := d.HeatLine(8, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := d.VerifyLine(8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("fresh batched line fails verify: %+v", rep)
	}
	// Geometry violations are refused.
	if err := d.WriteLineBatch(9, 2, blocks); err == nil {
		t.Fatal("misaligned line accepted")
	}
	if err := d.WriteLineBatch(8, 0, blocks); err == nil {
		t.Fatal("logN=0 accepted")
	}
	if err := d.WriteLineBatch(16, 1, blocks); err == nil {
		t.Fatal("overfull line accepted")
	}
}

// TestMoveGroupsLayoutIndependentOfWorkers pins the cleaner-engine
// contract: destinations are caller-assigned, so the post-move medium
// is identical for any worker count, and the fanned-out run advances
// the clock by the slowest worker (strictly less than the serial sum
// here, where two groups carry equal work).
func TestMoveGroupsLayoutIndependentOfWorkers(t *testing.T) {
	build := func() (*Device, [][]BlockMove) {
		d := testDevice(t, 128)
		for i := uint64(0); i < 8; i++ {
			if err := d.MWS(i, pattern(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		groups := [][]BlockMove{
			{{Src: 0, Dst: 64}, {Src: 1, Dst: 65}, {Src: 2, Dst: 66}, {Src: 3, Dst: 67}},
			{{Src: 4, Dst: 96}, {Src: 5, Dst: 97}, {Src: 6, Dst: 98}, {Src: 7, Dst: 99}},
		}
		return d, groups
	}

	serialDev, groups := build()
	t0 := serialDev.Clock().Now()
	for _, res := range serialDev.MoveGroups(groups, 1) {
		if res.Err != nil || res.Completed != 4 {
			t.Fatalf("serial move failed: %+v", res)
		}
	}
	serialNS := serialDev.Clock().Now() - t0

	parDev, groups2 := build()
	t0 = parDev.Clock().Now()
	for _, res := range parDev.MoveGroups(groups2, 2) {
		if res.Err != nil || res.Completed != 4 {
			t.Fatalf("parallel move failed: %+v", res)
		}
	}
	parNS := parDev.Clock().Now() - t0

	for _, g := range groups {
		for _, mv := range g {
			want, err := serialDev.MRS(mv.Dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parDev.MRS(mv.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("dst %d diverges between worker counts", mv.Dst)
			}
		}
	}
	if parNS >= serialNS {
		t.Fatalf("2-worker move pass cost %v, serial %v — no slowest-worker accounting", parNS, serialNS)
	}
}

func TestMoveGroupsRefusesBadDestination(t *testing.T) {
	d := testDevice(t, 64)
	if err := d.MWS(0, pattern(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.EWS(32, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	res := d.MoveGroups([][]BlockMove{{{Src: 0, Dst: 32}}}, 1)
	if res[0].Err == nil || res[0].Completed != 0 {
		t.Fatalf("move onto heated block accepted: %+v", res[0])
	}
}

// TestWriteRunsFannedMatchesSerial pins the fanned group-commit
// engine's contract: the same runs written serially via
// WriteBlocksTraced and fanned over worker planes leave identical
// bits, and the fanned virtual cost never exceeds serial
// (slowest-worker clock advance).
func TestWriteRunsFannedMatchesSerial(t *testing.T) {
	mkRuns := func() []WriteRun {
		runs := make([]WriteRun, 6)
		for r := range runs {
			blocks := make([][]byte, 3+r%3)
			for i := range blocks {
				blocks[i] = pattern(byte(16*r + i))
			}
			runs[r] = WriteRun{Start: uint64(r * 12), Blocks: blocks}
		}
		return runs
	}

	serial := testDevice(t, 128)
	t0 := serial.Clock().Now()
	for _, run := range mkRuns() {
		if err := serial.WriteBlocksTraced(nil, run.Start, run.Blocks); err != nil {
			t.Fatal(err)
		}
	}
	serialNS := serial.Clock().Now() - t0

	for _, workers := range []int{1, 2, 4, 9} {
		d := testDevice(t, 128)
		t0 := d.Clock().Now()
		for i, err := range d.WriteRunsFannedTraced(nil, mkRuns(), workers) {
			if err != nil {
				t.Fatalf("workers=%d: run %d: %v", workers, i, err)
			}
		}
		cost := d.Clock().Now() - t0
		if cost > serialNS {
			t.Fatalf("workers=%d: fanned cost %v exceeds serial %v", workers, cost, serialNS)
		}
		for _, run := range mkRuns() {
			for i, want := range run.Blocks {
				got, err := d.MRS(run.Start + uint64(i))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: block %d corrupted: %v", workers, run.Start+uint64(i), err)
				}
			}
		}
	}
}

// TestWriteRunsFannedRefusalIsPerRun checks refusal isolation: one bad
// run reports its own error and writes nothing, while every other run
// in the same fan-out lands intact.
func TestWriteRunsFannedRefusalIsPerRun(t *testing.T) {
	d := testDevice(t, 64)
	if err := d.MWS(20, pattern(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.EWS(21, []byte("frozen")); err != nil { // heated: magnetic writes refuse
		t.Fatal(err)
	}
	runs := []WriteRun{
		{Start: 0, Blocks: [][]byte{pattern(10), pattern(11)}},
		{Start: 20, Blocks: [][]byte{pattern(12), pattern(13)}}, // covers the heated block
		{Start: 40, Blocks: [][]byte{pattern(14)}},
		{Start: 63, Blocks: [][]byte{pattern(15), pattern(16)}}, // out of range
	}
	errs := d.WriteRunsFannedTraced(nil, runs, 2)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good runs failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("run over a heated block accepted")
	}
	if errs[3] == nil {
		t.Fatal("run beyond device accepted")
	}
	// The refused run wrote nothing — block 20 keeps its old bits.
	if got, err := d.MRS(20); err != nil || !bytes.Equal(got, pattern(1)) {
		t.Fatal("refused run still wrote its first block")
	}
	// The good runs landed.
	for _, at := range []struct {
		pba  uint64
		seed byte
	}{{0, 10}, {1, 11}, {40, 14}} {
		if got, err := d.MRS(at.pba); err != nil || !bytes.Equal(got, pattern(at.seed)) {
			t.Fatalf("good run block %d corrupted: %v", at.pba, err)
		}
	}
}
