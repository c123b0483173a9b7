package device

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"sero/internal/manchester"
)

// Line operations (§3 "Heat a line" / "Verify a heated line").
//
// A line is a sequence of 2^N contiguous blocks aligned on a 2^N
// boundary. Heating a line reads blocks 1..2^N−1 magnetically,
// computes a secure hash of the blocks *and their physical addresses*,
// and writes the hash (plus metadata) Manchester-encoded into block 0
// with the electrical write-once operation. Block 0's physical address
// is therefore known a priori — the defence against the splitting and
// coalescing attacks of §5.1.

// HeatRecord is the electrically written content of a line's block 0:
// Fig 3's "hash+meta". The fixed 64-byte wire format occupies 1024 of
// the block's 4096 data-region dots when Manchester encoded, leaving
// the paper's "3584 bits of space for meta data, signatures, etc."
// (we consume 512 of those for our metadata).
type HeatRecord struct {
	// LogN is the line size exponent: the line covers 1<<LogN blocks.
	LogN uint8
	// Start is the PBA of block 0 of the line.
	Start uint64
	// HeatedAt is the virtual time of the heat operation, in
	// nanoseconds.
	HeatedAt uint64
	// Hash is the SHA-256 over (PBA‖data) of blocks 1..2^N−1.
	Hash [sha256.Size]byte
}

// HeatRecordBytes is the wire size of a heat record.
const HeatRecordBytes = 64

var heatMagic = [4]byte{'S', 'E', 'R', 'O'}

const heatVersion = 1

// Marshal encodes the record into its fixed 64-byte wire format.
func (r *HeatRecord) Marshal() []byte {
	buf := make([]byte, HeatRecordBytes)
	copy(buf[0:4], heatMagic[:])
	buf[4] = heatVersion
	buf[5] = r.LogN
	// buf[6:8] reserved
	binary.BigEndian.PutUint64(buf[8:16], r.Start)
	binary.BigEndian.PutUint64(buf[16:24], r.HeatedAt)
	copy(buf[24:56], r.Hash[:])
	// buf[56:64] reserved for signatures etc.
	return buf
}

// ErrBadRecord reports a heat record that does not parse.
var ErrBadRecord = errors.New("device: malformed heat record")

// UnmarshalHeatRecord parses a 64-byte wire record.
func UnmarshalHeatRecord(buf []byte) (HeatRecord, error) {
	if len(buf) != HeatRecordBytes {
		return HeatRecord{}, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(buf))
	}
	if !bytes.Equal(buf[0:4], heatMagic[:]) {
		return HeatRecord{}, fmt.Errorf("%w: bad magic", ErrBadRecord)
	}
	if buf[4] != heatVersion {
		return HeatRecord{}, fmt.Errorf("%w: version %d", ErrBadRecord, buf[4])
	}
	var r HeatRecord
	r.LogN = buf[5]
	r.Start = binary.BigEndian.Uint64(buf[8:16])
	r.HeatedAt = binary.BigEndian.Uint64(buf[16:24])
	copy(r.Hash[:], buf[24:56])
	return r, nil
}

// LineInfo describes a heated line known to the device.
type LineInfo struct {
	Start  uint64     // first block: the heated hash record
	LogN   uint8      // size exponent: the line covers 1<<LogN blocks
	Record HeatRecord // the decoded heated record
}

// Blocks returns the number of blocks in the line.
func (l LineInfo) Blocks() uint64 { return 1 << l.LogN }

// LineExponent returns the smallest LogN whose line holds n blocks
// (1<<LogN >= n), minimum 1: a line is at least two blocks, the hash
// record plus one payload block.
func LineExponent(n int) uint8 {
	logN := uint8(1)
	for 1<<logN < n {
		logN++
	}
	return logN
}

// End returns the first PBA after the line.
func (l LineInfo) End() uint64 { return l.Start + l.Blocks() }

// Line-operation errors.
var (
	// ErrBadLine reports a misaligned or mis-sized line argument.
	ErrBadLine = errors.New("device: line not a 2^N-aligned 2^N-block range")
	// ErrLineOverlap reports a heat request overlapping an existing
	// heated line.
	ErrLineOverlap = errors.New("device: line overlaps an already-heated line")
	// ErrHeatVerify reports that the post-heat read-back check failed
	// (the paper's step 4 "or else fail").
	ErrHeatVerify = errors.New("device: heated hash read-back verification failed")
)

// lineRecordSize is the contribution of one member block to the hashed
// line image: its 8-byte physical address followed by its data.
const lineRecordSize = 8 + DataBytes

// overlappingLine returns a heated line overlapping [start, end), if
// any. A line of 2^N blocks starts on a 2^N boundary, so the only
// lines of that size that can overlap the range start at the multiples
// of 2^N from start &^ (2^N−1) up to end: for a single block, one map
// lookup per line size in use rather than a walk of the registry.
// Overlapping lines (a coalescing forgery recovered by Scan) are found
// the same way, each under its own size. A forged record claiming an
// unaligned range sets d.irregularLines (registerLine), and the
// registry is then walked instead. Caller holds d.regMu.
func (d *Device) overlappingLine(start, end uint64) (LineInfo, bool) {
	if d.irregularLines {
		for _, li := range d.lines {
			if li.Start < end && start < li.End() {
				return li, true
			}
		}
		return LineInfo{}, false
	}
	for sizes := d.lineSizes; sizes != 0; sizes &= sizes - 1 {
		logN := bits.TrailingZeros64(sizes)
		size := uint64(1) << logN
		for s := start &^ (size - 1); s < end; s += size {
			if li, ok := d.lines[s]; ok && int(li.LogN) == logN {
				return li, true
			}
		}
	}
	return LineInfo{}, false
}

// registerLine adds li to the registry and its size to the index.
// Caller holds d.regMu exclusively.
func (d *Device) registerLine(li LineInfo) {
	d.lines[li.Start] = li
	if li.LogN < 64 && li.Start&(li.Blocks()-1) == 0 {
		d.lineSizes |= 1 << li.LogN
	} else {
		d.irregularLines = true
	}
}

// lineHash reads the member blocks of the line [start, start+n) and
// returns the SHA-256 of their (PBA ‖ data) records in address order —
// the one canonical byte stream the line hash covers. Each record is
// read into one fixed buffer and streamed into the hash, so the line
// image is never held whole. Binding the physical addresses into the
// hashed stream prevents the copy-mask attack (§5.2: "a copy can always
// be distinguished from an original").
//
// When readErrs is nil the first unreadable member aborts with a
// wrapped error (the heat path: a line that cannot be read cannot be
// heated). When readErrs is non-nil, unreadable members are collected
// there instead and left out of the hash (the verify path, where a read
// error is tamper evidence, not failure). Caller holds the line's
// stripe locks.
func (d *Device) lineHash(pl *plane, start, n uint64, readErrs *[]uint64) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	h := sha256.New()
	rec := make([]byte, lineRecordSize)
	for pba := start + 1; pba < start+n; pba++ {
		err := d.magReadCheck(pba)
		if err == nil {
			binary.BigEndian.PutUint64(rec, pba)
			err = d.mrsInto(pl, pba, rec[8:])
		}
		if err != nil {
			if readErrs == nil {
				return sum, fmt.Errorf("device: heat read of block %d: %w", pba, err)
			}
			*readErrs = append(*readErrs, pba)
			continue
		}
		h.Write(rec)
	}
	h.Sum(sum[:0])
	return sum, nil
}

// HeatLine performs the atomic heat operation of §3 on the line of
// 1<<logN blocks starting at start:
//
//  1. read blocks 1..2^N−1 magnetically;
//  2. compute SHA-256 of the blocks and their addresses;
//  3. write the Manchester encoding of the hash record into block 0
//     with the electrical write operation;
//  4. check the hash reads back electrically, or fail.
//
// Re-heating an identical line is harmless (identical dots are already
// heated, EWB is idempotent); heating different content into a heated
// block turns cells into HH, which VerifyLine reports as tampering —
// both behaviours match §3.
func (d *Device) HeatLine(start uint64, logN uint8) (LineInfo, error) {
	if logN < 1 || logN > 20 {
		return LineInfo{}, fmt.Errorf("%w: logN=%d", ErrBadLine, logN)
	}
	n := uint64(1) << logN
	if start%n != 0 {
		return LineInfo{}, fmt.Errorf("%w: start %d not aligned to %d", ErrBadLine, start, n)
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	if start+n > uint64(d.p.Blocks) {
		return LineInfo{}, fmt.Errorf("%w: line [%d,%d) beyond %d blocks",
			ErrOutOfRange, start, start+n, d.p.Blocks)
	}
	locked := d.lockCrosstalkRange(start, start+n)
	defer d.unlockRange(locked)

	reheat := false
	var existing LineInfo
	d.regMu.RLock()
	if _, ok := d.overlappingLine(start, start+n); ok {
		li, ok := d.lines[start]
		if !ok || li.LogN != logN {
			d.regMu.RUnlock()
			return LineInfo{}, fmt.Errorf("%w: [%d,%d)", ErrLineOverlap, start, start+n)
		}
		existing = li
		reheat = true
	}
	d.regMu.RUnlock()

	// Steps 1+2: read the member blocks and hash them in one pass.
	hash, err := d.lineHash(&d.fg, start, n, nil)
	if err != nil {
		return LineInfo{}, err
	}
	rec := HeatRecord{
		LogN:     logN,
		Start:    start,
		HeatedAt: uint64(d.clock.Now()),
		Hash:     hash,
	}
	if reheat {
		// §3: a heat of an already-heated line "either has no effect
		// and is therefore harmless (if the data in block 0 is
		// invariant) or it will turn Manchester encoded bits into HH,
		// thus providing evidence of tampering". An unchanged hash is
		// a no-op; a changed one proceeds and inevitably damages the
		// record into HH cells — exactly the evidence the paper wants.
		if existing.Record.Hash == rec.Hash {
			return existing, nil
		}
		rec.HeatedAt = existing.Record.HeatedAt // timestamp dots are already burnt
	}

	// Step 3: electrical write of the Manchester-encoded record.
	if err := d.ewsCheck(start); err != nil {
		return LineInfo{}, fmt.Errorf("device: heat write of block %d: %w", start, err)
	}
	d.ewsOn(&d.fg, start, rec.Marshal())

	// Step 4: read back and verify.
	rep, err := d.ersOn(&d.fg, start, HeatRecordBytes)
	if err != nil {
		return LineInfo{}, fmt.Errorf("device: heat read-back: %w", err)
	}
	if !rep.Clean || !bytes.Equal(rep.Payload, rec.Marshal()) {
		d.regMu.Lock()
		d.heated[start] = true // the dots are burnt even though the heat failed
		d.regMu.Unlock()
		return LineInfo{}, ErrHeatVerify
	}

	li := LineInfo{Start: start, LogN: logN, Record: rec}
	d.regMu.Lock()
	d.registerLine(li)
	d.heated[start] = true
	d.regMu.Unlock()
	d.fg.record(d, func(st *OpStats) { st.HeatLines++ })
	return li, nil
}

// VerifyReport is the outcome of verifying a heated line.
type VerifyReport struct {
	// Line is the verified line.
	Line LineInfo
	// OK is true when the line shows no evidence of tampering.
	OK bool
	// RecordDamaged is true when block 0's Manchester cells decode
	// with HH/UU cells or the record fails to parse — direct evidence
	// of tampering with the hash itself.
	RecordDamaged bool
	// TamperedCells counts HH cells in block 0.
	TamperedCells int
	// HashMismatch is true when the recomputed hash differs from the
	// stored one.
	HashMismatch bool
	// ReadErrors lists member blocks that could not be read
	// magnetically (e.g. an attacker heated data dots — §5.1 "appears
	// as a read error").
	ReadErrors []uint64
}

// Tampered reports whether the verification found evidence of
// tampering.
func (r VerifyReport) Tampered() bool { return !r.OK }

// VerifyLine recomputes the hash of the line starting at start and
// compares it with the electrically stored record (§3 "Verify a heated
// line"). All failure modes — damaged record cells, unreadable member
// blocks, hash mismatch — are evidence of tampering and reported.
func (d *Device) VerifyLine(start uint64) (VerifyReport, error) {
	return d.verifyStart(&d.fg, start)
}

// VerifyLineOffClock verifies the line starting at start on a private
// latency plane without advancing the device's shared clock: the model
// of verification hardware running concurrently with (not ahead of)
// the foreground data path. The elapsed virtual time the check *would*
// have cost is returned as shadow time for accounting, and the
// operation counters are folded into the device stats as usual. This
// is the incremental background auditor's read primitive — it keeps
// audited and unaudited runs byte-identical in virtual time while
// still charging the real stripe-lock contention in wall time.
func (d *Device) VerifyLineOffClock(start uint64) (VerifyReport, time.Duration, error) {
	pl := d.newPlane(0, int64(d.clock.Now()))
	rep, err := d.verifyStart(pl, start)
	d.mergeStats(pl.stats)
	return rep, pl.clock.Now(), err
}

// verifyStart looks up and verifies the line at start on the given
// plane, taking the gate and stripe locks itself.
func (d *Device) verifyStart(pl *plane, start uint64) (VerifyReport, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.regMu.RLock()
	li, ok := d.lines[start]
	d.regMu.RUnlock()
	if !ok {
		return VerifyReport{}, fmt.Errorf("%w: no heated line at %d", ErrNotHeated, start)
	}
	locked := d.lockRange(li.Start, li.End())
	defer d.unlockRange(locked)
	return d.verifyOn(pl, li)
}

// verifyOn verifies one line on the given plane. Caller holds the gate
// read lock and the line's stripe locks.
func (d *Device) verifyOn(pl *plane, li LineInfo) (VerifyReport, error) {
	rep := VerifyReport{Line: li, OK: true}
	pl.record(d, func(st *OpStats) { st.VerifyLines++ })

	// Read the stored record electrically.
	ers, err := d.ersOn(pl, li.Start, HeatRecordBytes)
	if err != nil {
		return VerifyReport{}, err
	}
	rep.TamperedCells = len(ers.TamperedCells)
	var stored HeatRecord
	if !ers.Clean {
		rep.RecordDamaged = true
		rep.OK = false
	} else {
		stored, err = UnmarshalHeatRecord(ers.Payload)
		if err != nil {
			rep.RecordDamaged = true
			rep.OK = false
		} else if stored.Start != li.Start || stored.LogN != li.LogN {
			rep.RecordDamaged = true
			rep.OK = false
		}
	}

	// Recompute the hash over the member blocks.
	hash, err := d.lineHash(pl, li.Start, li.Blocks(), &rep.ReadErrors)
	if err != nil {
		return VerifyReport{}, err
	}
	if len(rep.ReadErrors) > 0 {
		rep.OK = false
	}
	if len(rep.ReadErrors) == 0 && !rep.RecordDamaged {
		if hash != stored.Hash {
			rep.HashMismatch = true
			rep.OK = false
		}
	}
	return rep, nil
}

// VerifyOutcome pairs one line's verification report with its error,
// for fan-out collection.
type VerifyOutcome struct {
	Report VerifyReport // the line's report, valid when Err is nil
	Err    error        // why the line could not be verified
}

// VerifyLines verifies the lines at the given start addresses with a
// pool of workers (workers <= 0 means the device's configured
// Concurrency). Outcome i always corresponds to starts[i]. On a
// noiseless medium the outcomes are bit-identical for any worker
// count; with read noise, workers interleave draws from the shared
// noise stream, one whole ranged read at a time: a record's electrical
// read and each member's magnetic read take their draws in one
// unbroken run (see the package sero concurrency notes).
//
// Lines are split strided over the worker planes ("verify-fanout"):
// worker w verifies lines w, w+workers, w+2·workers, … and the pass
// costs its slowest worker (see fanOut). With workers == 1 this
// degenerates to the single-sled serial sum. Each line takes the gate
// and its stripe locks itself (verifyStart).
func (d *Device) VerifyLines(starts []uint64, workers int) []VerifyOutcome {
	out := make([]VerifyOutcome, len(starts))
	d.fanOut(len(starts), workers, strided, nil, "verify-fanout", func(pl *plane, _, i int) {
		out[i].Report, out[i].Err = d.verifyStart(pl, starts[i])
	})
	return out
}

// Lines returns the heated lines known to the device, sorted by start.
func (d *Device) Lines() []LineInfo {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	out := make([]LineInfo, 0, len(d.lines))
	for _, li := range d.lines {
		out = append(out, li)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// scanResult is one worker's findings over its share of the blocks.
type scanResult struct {
	heated      []uint64
	lines       []LineInfo
	unparseable []uint64
	errPBA      uint64
	err         error
}

// Scan rebuilds the device's heated-line registry from the medium by
// probing every block for electrical data and parsing the records it
// finds. This is the §5.2 recovery path ("a fsck style scan of the
// medium would definitely recover (albeit slowly) all the heated
// files") and also models reattaching a device whose host state was
// lost. It returns the recovered lines and a list of blocks holding
// electrical data that does not parse as a record (evidence of raw
// tampering or a shredded block).
//
// The scan holds the exclusive device gate and fans the block probe
// out over the configured Concurrency ("scan-fanout"): the block space
// is cut into 16-block chunks split strided over the worker planes,
// and the pass costs its slowest worker (see fanOut). On a noiseless
// medium the merged results are independent of the worker count too
// (results are merged in block order either way).
func (d *Device) Scan() (recovered []LineInfo, unparseable []uint64, err error) {
	d.gate.Lock()
	defer d.gate.Unlock()

	const chunk = 16 // contiguous blocks per stride step
	blocks := uint64(d.p.Blocks)
	workers := d.Concurrency()
	results := make([]scanResult, workers)
	d.fanOut(int((blocks+chunk-1)/chunk), workers, strided, nil, "scan-fanout", func(pl *plane, w, c int) {
		lo := uint64(c) * chunk
		d.scanRange(pl, lo, min(lo+chunk, blocks), &results[w])
	})

	// Surface the lowest-addressed error, deterministically.
	var firstErr *scanResult
	for i := range results {
		res := &results[i]
		if res.err != nil && (firstErr == nil || res.errPBA < firstErr.errPBA) {
			firstErr = res
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr.err
	}

	// Merge per-worker findings in block order and rebuild the
	// registry.
	var allHeated []uint64
	for _, res := range results {
		allHeated = append(allHeated, res.heated...)
		recovered = append(recovered, res.lines...)
		unparseable = append(unparseable, res.unparseable...)
	}
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].Start < recovered[j].Start })
	sort.Slice(unparseable, func(i, j int) bool { return unparseable[i] < unparseable[j] })

	d.regMu.Lock()
	d.lines = make(map[uint64]LineInfo)
	d.lineSizes, d.irregularLines = 0, false
	d.heated = make(map[uint64]bool)
	for _, pba := range allHeated {
		d.heated[pba] = true
	}
	for _, li := range recovered {
		d.registerLine(li)
	}
	d.regMu.Unlock()
	return recovered, unparseable, nil
}

// scanRange probes blocks [lo, hi) on the given plane, accumulating
// findings into res. Runs under the exclusive gate, so no stripe locks
// are needed; the first error stops the range.
func (d *Device) scanRange(pl *plane, lo, hi uint64, res *scanResult) {
	if res.err != nil {
		return
	}
	for pba := lo; pba < hi; pba++ {
		hot, perr := d.probeHeatedOn(pl, pba, 32)
		if perr != nil {
			res.err = perr
			res.errPBA = pba
			return
		}
		if !hot {
			continue
		}
		res.heated = append(res.heated, pba)
		rep, rerr := d.ersOn(pl, pba, HeatRecordBytes)
		if rerr != nil {
			res.err = rerr
			res.errPBA = pba
			return
		}
		if !rep.Clean {
			res.unparseable = append(res.unparseable, pba)
			continue
		}
		rec, uerr := UnmarshalHeatRecord(rep.Payload)
		if uerr != nil || rec.Start != pba {
			res.unparseable = append(res.unparseable, pba)
			continue
		}
		res.lines = append(res.lines, LineInfo{Start: pba, LogN: rec.LogN, Record: rec})
	}
}

// ERSReport is the outcome of an electrical sector read.
type ERSReport struct {
	// Payload is the decoded bytes (valid when Clean).
	Payload []byte
	// Clean is true when every cell decoded as valid data.
	Clean bool
	// TamperedCells lists HH cell indices.
	TamperedCells []int
	// UnusedCells lists UU cell indices inside the read range.
	UnusedCells []int
}

// decodeERS decodes the first n packed erb verdicts of a
// Manchester-coded electrical read.
func decodeERS(verdicts []uint64, n int) (ERSReport, error) {
	rep, err := manchester.Decode(verdicts, n)
	out := ERSReport{
		Payload:       rep.Data,
		Clean:         rep.Clean(),
		TamperedCells: rep.Tampered,
		UnusedCells:   rep.Unused,
	}
	if err != nil && !errors.Is(err, manchester.ErrTampered) && !errors.Is(err, manchester.ErrUnused) {
		return out, err
	}
	return out, nil
}

// decodeERSWOM decodes the first n packed erb verdicts of a WOM-coded
// electrical read. Every pattern is a valid WOM codeword, so the report
// is always structurally Clean; the caller's record parse and hash
// comparison carry the tamper evidence (the §8 trade-off of the denser
// coding).
func decodeERSWOM(verdicts []uint64, n int) (ERSReport, error) {
	payload, err := manchester.WOMDecode(verdicts, n)
	if err != nil {
		return ERSReport{}, err
	}
	return ERSReport{Payload: payload, Clean: true}, nil
}

// headerDotOffset returns the dot offset of the data region within a
// block's frame (the header bits come first).
func headerDotOffset() int { return HeaderBytes * 8 }
