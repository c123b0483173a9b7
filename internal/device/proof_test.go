package device

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"sero/internal/medium"
	"sero/internal/sim"
)

// refRead reads block pba the way the device cannot cheat: a raw
// MRBImage under the block's stripe lock, decoded by UnmarshalFrame.
func refRead(d *Device, pba uint64) (Frame, int, error) {
	img := make([]byte, PhysicalBytes)
	d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.MRBImage(d.dotBase(pba), img) })
	return UnmarshalFrame(img, pba)
}

// checkRead compares MRS of pba with refRead: the same error, the same
// corrected bytes and, on success, the same payload. A read the device
// refuses before touching the medium (a heated or bad block) is not
// compared.
func checkRead(t *testing.T, d *Device, pba uint64) {
	t.Helper()
	before := d.Stats().CorrectedBytes
	got, err := d.MRS(pba)
	if errors.Is(err, ErrHeatedBlock) || errors.Is(err, ErrBadBlock) {
		return
	}
	corrected := int(d.Stats().CorrectedBytes - before)
	f, wantCorrected, wantErr := refRead(d, pba)
	if err != wantErr || corrected != wantCorrected {
		t.Fatalf("block %d: MRS error %v corrected %d, reference %v corrected %d",
			pba, err, corrected, wantErr, wantCorrected)
	}
	if err == nil && !bytes.Equal(got, f.Data[:]) {
		t.Fatalf("block %d: MRS payload differs from the reference", pba)
	}
}

// TestWorkCountersExact pins the host-work counters on hand-counted
// sequences: every read of a block written since its last change is
// proven, a corrupted dot costs a decode on every later read, and each
// move of a clean frame is patched by linearity.
func TestWorkCountersExact(t *testing.T) {
	d := testDevice(t, 16)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(pba))); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		for pba := uint64(0); pba < 4; pba++ {
			checkRead(t, d, pba)
		}
	}
	if st := d.Stats(); st.FrameChecksSkipped != 8 || st.MagneticReads != 8 {
		t.Fatalf("after 4 MWS and 2 MRS each: %d skipped of %d reads, want 8 of 8",
			st.FrameChecksSkipped, st.MagneticReads)
	}

	// One flipped payload dot: the next read decodes and corrects it,
	// and so does every later one, since a corrected frame is never
	// proven.
	d.TamperRaw(2, 3, func(m *medium.Medium) { m.CorruptMagnetic(d.dotBase(2) + 8*HeaderBytes + 5) })
	for i := range 3 {
		before := d.Stats()
		checkRead(t, d, 2)
		st := d.Stats()
		if st.CorrectedBytes != before.CorrectedBytes+1 || st.FrameChecksSkipped != before.FrameChecksSkipped {
			t.Fatalf("read %d of the corrupted block: corrected +%d, skipped +%d; want +1, +0", i,
				st.CorrectedBytes-before.CorrectedBytes, st.FrameChecksSkipped-before.FrameChecksSkipped)
		}
	}

	// Three moves of proven sources: three proven reads, three frames
	// rebound, and the destinations read back proven.
	before := d.Stats()
	moves := []BlockMove{{Src: 0, Dst: 8}, {Src: 1, Dst: 9}, {Src: 3, Dst: 10}}
	for _, r := range d.MoveGroups([][]BlockMove{moves}, 1) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := d.Stats()
	if got := st.FramesRebound - before.FramesRebound; got != 3 {
		t.Fatalf("3-block MoveGroups rebound %d frames, want 3", got)
	}
	if got := st.FrameChecksSkipped - before.FrameChecksSkipped; got != 3 {
		t.Fatalf("3-block MoveGroups skipped %d source checks, want 3", got)
	}
	for _, mv := range moves {
		checkRead(t, d, mv.Dst)
	}
	if got := d.Stats().FrameChecksSkipped - st.FrameChecksSkipped; got != 3 {
		t.Fatalf("reads of the moved blocks skipped %d checks, want 3", got)
	}
}

// proofMedia are the media FuzzReadProof runs on. Every one is
// noiseless, so a reference read sees exactly what MRS saw; they
// differ in what an electrical write does to the neighbours.
var proofMedia = []func(medium.Params) medium.Params{
	func(p medium.Params) medium.Params { return p },
	// Heat spill that destroys the neighbour dots outright.
	func(p medium.Params) medium.Params { p.NeighborTempFactor = 0.95; return p },
	// Crosstalk flips of the neighbours' magnetisation.
	func(p medium.Params) medium.Params { p.ThermalCrosstalk = 0.5; return p },
}

// FuzzReadProof holds the proven read to the full decode. It drives a
// sled with batched writes, moves, reads, heats and electrical writes
// (whose pulses spill into the neighbouring blocks), forged frames and
// every raw mutator (MWB, MWBImage of a misplaced or corrupted frame,
// CorruptMagnetic, SetStuck, ReplaceRegion, BulkErase, a raw EWB),
// and a SaveImage/LoadImage round trip; every MRS, and a final sweep
// of every block, must return what UnmarshalFrame of a raw MRBImage of
// the same block returns: the payload, the error and the corrected
// bytes.
func FuzzReadProof(f *testing.F) {
	// Each of the first five seeds proves a block, changes it one way
	// and reads it again: stuck dots, raw heats of reserved header dots,
	// another block's frame written raw over a block proven after a raw
	// MWB, a frame forged over stuck dots, and heat spill that destroys
	// neighbour dots.
	f.Add(uint8(0), []byte{0, 1, 0, 7, 3, 1, 10, 1, 100, 1, 10, 1, 101, 1, 10, 1, 102, 1, 10, 1, 103, 1, 3, 1})
	f.Add(uint8(0), []byte{0, 2, 0, 9, 3, 2, 14, 2, 4, 14, 2, 5, 3, 2})
	f.Add(uint8(0), []byte{0, 3, 0, 11, 8, 3, 4, 0, 3, 3, 13, 3, 5, 13, 0, 3, 3})
	f.Add(uint8(0), []byte{10, 4, 100, 1, 10, 4, 101, 1, 10, 4, 102, 1, 10, 4, 103, 1, 7, 4, 17, 3, 4})
	f.Add(uint8(1), []byte{0, 3, 2, 9, 3, 3, 3, 5, 5, 0, 4, 3, 3, 3, 5})
	f.Add(uint8(0), []byte{0, 1, 3, 2, 1, 2, 3, 8, 1, 3, 2, 3})
	f.Add(uint8(0), []byte{0, 4, 3, 9, 8, 5, 40, 2, 5, 5, 0, 0, 2, 5, 11, 6, 2, 6})
	f.Add(uint8(1), []byte{0, 0, 3, 7, 3, 4, 1, 2, 3, 2, 5, 2, 7})
	f.Add(uint8(2), []byte{0, 8, 3, 1, 4, 9, 9, 2, 8, 2, 10, 13, 0, 14, 0})
	f.Add(uint8(0), []byte{0, 0, 3, 5, 6, 1, 1, 200, 2, 1, 12, 1, 9, 9, 2, 1, 10, 0, 0})
	f.Add(uint8(1), []byte{0, 2, 3, 3, 11, 3, 1, 2, 3, 14, 0, 15, 3, 2, 3})
	f.Fuzz(func(t *testing.T, mediumIn uint8, ops []byte) {
		const blocks = 16
		p := QuietParams(blocks)
		p.Medium = proofMedia[int(mediumIn)%len(proofMedia)](p.Medium)
		d := New(p)
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		block := func() uint64 { return uint64(next() % blocks) }
		dot := func(pba uint64) int { return d.dotBase(pba) + next()*DotsPerBlock/256 }
		for len(ops) > 0 {
			switch next() % 16 {
			case 0, 1: // a batched write of 1–3 blocks
				start, n := block(), 1+next()%3
				run := make([][]byte, min(n, blocks-int(start)))
				for i := range run {
					run[i] = pattern(byte(next()))
				}
				d.WriteBlocksTraced(nil, start, run)
			case 2: // a move of 1–3 blocks
				src, dst, n := block(), block(), 1+next()%3
				var moves []BlockMove
				for i := range n {
					if s, t := src+uint64(i), dst+uint64(i); s < blocks && t < blocks {
						moves = append(moves, BlockMove{Src: s, Dst: t})
					}
				}
				d.MoveGroups([][]BlockMove{moves}, 1)
			case 3, 4:
				checkRead(t, d, block())
			case 5: // a heat, spilling into the blocks around its record
				logN := uint8(1 + next()%2)
				d.HeatLine(block()&^(1<<logN-1), logN)
			case 6:
				d.EWS(block(), pattern(byte(next()))[:16])
			case 7:
				d.ForgeBlock(block(), pattern(byte(next())))
			case 8:
				pba := block()
				i, bit := dot(pba), next()&1 == 1
				d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.MWB(i, bit) })
			case 9:
				pba := block()
				i := dot(pba)
				d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.CorruptMagnetic(i) })
			case 10:
				pba := block()
				i, k := dot(pba), medium.StuckKind(next()%4)
				d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.SetStuck(i, k) })
			case 11:
				pba := block()
				lo := dot(pba)
				hi := min(lo+next()*64, blocks*DotsPerBlock)
				d.TamperRaw(pba, uint64(hi+DotsPerBlock-1)/DotsPerBlock, func(m *medium.Medium) { m.ReplaceRegion(lo, hi) })
			case 12:
				if next()%4 == 0 {
					d.TamperExclusive(func(m *medium.Medium) { m.BulkErase() })
				}
			case 13: // a raw frame image: another block's, or a corrupted one
				pba, other := block(), block()
				img := make([]byte, PhysicalBytes)
				putFrame(img, other, FlagData, pattern(byte(next())))
				for range next() % 12 {
					img[next()*PhysicalBytes/256] ^= byte(1 + next())
				}
				d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.MWBImage(d.dotBase(pba), img) })
			case 14:
				pba := block()
				i := dot(pba)
				d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.EWB(i) })
			case 15:
				nd, _, err := LoadImage(d.SaveImage(), p)
				if err != nil {
					t.Fatal(err)
				}
				d = nd
			}
		}
		for pba := uint64(0); pba < blocks; pba++ {
			checkRead(t, d, pba)
		}
	})
}

// TestRebindMatchesPutFrame moves random payloads between random
// addresses by linearity: the rebound image must be the frame putFrame
// encodes for the payload at the destination, byte for byte, also when
// the source frame's flag or reserved bytes are not putFrame's (they
// become FlagData and zero, as the decode-and-encode move made them).
func TestRebindMatchesPutFrame(t *testing.T) {
	rng := sim.NewRNG(21)
	img, want := make([]byte, PhysicalBytes), make([]byte, PhysicalBytes)
	for i := range 500 {
		payload := make([]byte, DataBytes)
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		src, dst := rng.Uint64(), rng.Uint64()
		if i%3 == 0 {
			src, dst = src%4096, dst%4096
		}
		flags, reserved := FlagData, [3]byte{}
		foreign := i%10 == 0
		if foreign {
			flags = byte(rng.Uint64())
			for j := range reserved {
				reserved[j] = byte(rng.Uint64())
			}
		}
		putFrame(img, src, flags, payload)
		if foreign {
			// A codeword with foreign reserved bytes, as a raw forgery
			// could write.
			copy(img[9:12], reserved[:])
			codec.PutParity(img, HeaderBytes+DataBytes)
		}
		rebindFrame(img, dst)
		putFrame(want, dst, FlagData, payload)
		if !bytes.Equal(img, want) {
			t.Fatalf("move %d (%d → %d, foreign header %v): rebound image differs from putFrame", i, src, dst, foreign)
		}
	}
}

// TestMoveRebindsCorrectedSource moves blocks whose frames the code
// must first correct, in the header, the payload and the parity of
// every lane, and blocks whose frames carry foreign flag and reserved
// bytes: each destination must hold exactly the frame putFrame encodes
// for the payload there.
func TestMoveRebindsCorrectedSource(t *testing.T) {
	const blocks = 16
	d := testDevice(t, blocks)
	for pba := uint64(0); pba < 4; pba++ {
		if err := d.MWS(pba, pattern(byte(40+pba))); err != nil {
			t.Fatal(err)
		}
	}
	// Block 1: one byte per lane in the header, the payload and the
	// parity, eight dots in all.
	for _, b := range []int{0, 5, 130, 263, 529, 546, 563, 580} {
		i := d.dotBase(1) + 8*b + 3
		d.TamperRaw(1, 2, func(m *medium.Medium) { m.CorruptMagnetic(i) })
	}
	// Block 3: a valid frame whose flag and reserved bytes are not
	// putFrame's.
	foreign := Frame{PBA: 3, Flags: 0x80}
	copy(foreign.Data[:], pattern(43))
	fimg := foreign.Marshal()
	copy(fimg[9:12], []byte{1, 2, 3})
	codec.PutParity(fimg, HeaderBytes+DataBytes)
	d.TamperRaw(3, 4, func(m *medium.Medium) { m.MWBImage(d.dotBase(3), fimg) })

	before := d.Stats()
	moves := []BlockMove{{Src: 0, Dst: 8}, {Src: 1, Dst: 9}, {Src: 2, Dst: 10}, {Src: 3, Dst: 11}}
	for _, r := range d.MoveGroups([][]BlockMove{moves}, 1) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := d.Stats()
	if got := st.CorrectedBytes - before.CorrectedBytes; got != 8 {
		t.Fatalf("the moves corrected %d bytes, want 8", got)
	}
	if got := st.FramesRebound - before.FramesRebound; got != 4 {
		t.Fatalf("%d frames rebound, want 4", got)
	}
	img, want := make([]byte, PhysicalBytes), make([]byte, PhysicalBytes)
	for _, mv := range moves {
		d.TamperRaw(mv.Dst, mv.Dst+1, func(m *medium.Medium) { m.MRBImage(d.dotBase(mv.Dst), img) })
		putFrame(want, mv.Dst, FlagData, pattern(byte(40+mv.Src)))
		if !bytes.Equal(img, want) {
			t.Fatalf("move %d → %d: destination image differs from putFrame's", mv.Src, mv.Dst)
		}
	}
}

// TestProofsUnderConcurrency races fanned moves, foreground reads and
// heats of lines whose records sit next to the read blocks. Proofs are
// written from the read and write paths under the blocks' stripe
// locks, so under the race detector every read must still match the
// reference, during the race and after it.
func TestProofsUnderConcurrency(t *testing.T) {
	const blocks, moved = 256, 32
	d := testDevice(t, blocks)
	payload := func(pba uint64) []byte { return pattern(byte(pba * 7)) }
	for pba := uint64(0); pba < blocks; pba++ {
		if err := d.MWS(pba, payload(pba)); err != nil {
			t.Fatal(err)
		}
	}
	// Sources 0..31 move to 64..95 in four groups, one per plane; the
	// destinations then hold their sources' payloads.
	groups := make([][]BlockMove, 4)
	for i := uint64(0); i < moved; i++ {
		groups[i%4] = append(groups[i%4], BlockMove{Src: i, Dst: 64 + i})
	}
	move := func() error {
		for _, r := range d.MoveGroups(groups, 4) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	if err := move(); err != nil {
		t.Fatal(err)
	}
	want := func(pba uint64) []byte {
		if pba >= 64 && pba < 64+moved {
			return payload(pba - 64)
		}
		return payload(pba)
	}
	// Lines of 4 at 128, 136, …: each heat spills into the block before
	// its record, which the readers read.
	var lines []uint64
	for s := uint64(128); s < 192; s += 8 {
		lines = append(lines, s)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 6 {
			if err := move(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, s := range lines {
			if _, err := d.HeatLine(s, 2); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				var pba uint64
				switch i % 3 {
				case 0:
					pba = uint64(i/3+g) % moved
				case 1:
					pba = 64 + uint64(i/3+g)%moved
				default:
					s := lines[(i/3+g)%len(lines)]
					pba = s - 1 + uint64(i%2)*2 // the record's neighbours
				}
				got, err := d.MRS(pba)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want(pba)) {
					errs <- fmt.Errorf("read of block %d differs", pba)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for pba := uint64(0); pba < blocks; pba++ {
		checkRead(t, d, pba)
	}
	if d.Stats().FrameChecksSkipped == 0 {
		t.Fatal("no read was proven")
	}
}
