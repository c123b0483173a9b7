package lfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"sero/internal/device"
)

// The segment journal: roll-forward summary records.
//
// Classic LFS treats the log itself as the journal — segment summary
// blocks let a mount roll forward from the last checkpoint instead of
// forcing every Sync to rewrite the whole checkpoint region. Here the
// summary chain lives *in the data log itself*, at the affinity-0
// appender's write frontier, so the summary-tail ack rides the same
// servo settle as the data it acks:
//
//   - every chain element carries a sequence number and a checksum
//     chained from the checkpoint that anchors the epoch, so replay
//     can detect a torn or stale tail and stop cleanly at the last
//     valid record;
//   - a delta record describes everything since the previous record:
//     the inode-map updates (the replay essentials), the ordered
//     directory ops (create/remove/rename), the per-block {ino,offset}
//     back-pointers of appended data (the fsck cross-check), and the
//     next-inode counter;
//   - every record is followed by a reserved one-block *promise* slot
//     (the position of the next chain element), which data appends
//     skip. When data has landed since the last record, Sync writes a
//     jump into the promise slot pointing at the new record behind
//     that data — composed, whenever the run is contiguous, into ONE
//     batched device.WriteBlocksTraced command: [jump][buffered
//     data][record]. The record trails the data it acks, so a
//     prefix-torn command can never ack missing blocks.
//
// Segments holding chain blocks are flagged (segment.journal) and
// refused by the cleaner until the next checkpoint obsoletes the
// chain and clears every flag.
//
// The deltas play a second role since the checkpointed liveness table
// (checkpoint.go): a record's imap updates and data back-pointers mark
// exactly the inos whose liveness moved after the checkpoint, so a
// table-driven mount adopts the table for every untouched ino and
// re-reads only the touched ones — the deltas are the table's
// increments. Every path that moves liveness (flush, delete, heat,
// cleaner relocation) must therefore journal the affected ino before
// the next covering point, an invariant serofsck's table cross-check
// verifies.

const (
	summaryMagic = "SJRN"
	// sumHdrBytes is the record header occupying the front of the
	// record's first block; the payload starts right after it.
	sumHdrBytes = 28

	recDelta byte = 1
	recJump  byte = 2
)

// Directory-op kinds journaled in a delta record.
const (
	dirOpCreate byte = iota
	dirOpRemove
	dirOpRename
)

// dirOp is one journaled directory mutation. Ops are applied in order
// during replay, so create/remove/rename sequences inside one sync
// interval resolve exactly as they happened.
type dirOp struct {
	op       byte
	ino      Ino
	affinity uint8
	name     string // created/removed name, or rename source
	newName  string // rename target
}

// blockPtr is a per-block back-pointer: block pba holds data block idx
// of file ino. Replay itself rebuilds state from the imap deltas (each
// sync rewrites the inodes it touched), so these are the classic
// segment-summary cross-check serofsck uses to verify back-pointer
// agreement with the imap.
type blockPtr struct {
	ino Ino
	idx int32
	pba uint64
}

// imapDelta is one inode-map update: set ino -> pba, or remove ino.
type imapDelta struct {
	ino    Ino
	remove bool
	pba    uint64
}

// summaryDelta is the decoded payload of one delta record.
type summaryDelta struct {
	next   Ino
	dirOps []dirOp
	imap   []imapDelta
	blocks []blockPtr
}

// errJournalFull reports that the pending delta cannot be journaled —
// it exceeds one record, or no journal segment is available. The sync
// path falls back to a full checkpoint, which needs no journal space.
var errJournalFull = errors.New("lfs: summary record does not fit the journal")

// chainSeed derives the summary-chain seed of a checkpoint epoch. The
// epoch is folded in so records left over from an earlier chain in a
// recycled segment can never check out against the wrong checkpoint.
func chainSeed(epoch uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(summaryMagic))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	h.Write(b[:])
	return h.Sum64()
}

// chainNext folds one record into the running chain checksum.
func chainNext(prev, seq uint64, kind byte, payload []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], prev)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], seq)
	h.Write(b[:])
	h.Write([]byte{kind})
	h.Write(payload)
	return h.Sum64()
}

// summaryBlocks returns the number of blocks a record with the given
// payload length occupies (header shares the first block).
func summaryBlocks(payloadLen int) int {
	n := 1
	rem := payloadLen - (device.DataBytes - sumHdrBytes)
	for rem > 0 {
		n++
		rem -= device.DataBytes
	}
	return n
}

// summaryCapacity is the payload capacity of an n-block record.
func summaryCapacity(nblocks int) int {
	return nblocks*device.DataBytes - sumHdrBytes
}

// buildRecordBlocks lays a record out as device blocks. chain is the
// running chain value *after* folding this record.
func buildRecordBlocks(kind byte, seq, chain uint64, payload []byte) [][]byte {
	nblocks := summaryBlocks(len(payload))
	flat := make([]byte, nblocks*device.DataBytes)
	copy(flat[0:4], summaryMagic)
	flat[4] = kind
	binary.BigEndian.PutUint16(flat[6:8], uint16(nblocks))
	binary.BigEndian.PutUint64(flat[8:16], seq)
	binary.BigEndian.PutUint64(flat[16:24], chain)
	binary.BigEndian.PutUint32(flat[24:28], uint32(len(payload)))
	copy(flat[sumHdrBytes:], payload)
	blocks := make([][]byte, nblocks)
	for i := range blocks {
		blocks[i] = flat[i*device.DataBytes : (i+1)*device.DataBytes]
	}
	return blocks
}

// recHeader is the parsed fixed header of a summary record.
type recHeader struct {
	kind       byte
	nblocks    int
	seq        uint64
	chain      uint64
	payloadLen int
}

// parseRecHeader validates and decodes a record's first block. A false
// return means "not a record here" — the clean end of the chain.
func parseRecHeader(block []byte) (recHeader, bool) {
	if len(block) < sumHdrBytes || string(block[0:4]) != summaryMagic {
		return recHeader{}, false
	}
	h := recHeader{
		kind:       block[4],
		nblocks:    int(binary.BigEndian.Uint16(block[6:8])),
		seq:        binary.BigEndian.Uint64(block[8:16]),
		chain:      binary.BigEndian.Uint64(block[16:24]),
		payloadLen: int(binary.BigEndian.Uint32(block[24:28])),
	}
	if h.kind != recDelta && h.kind != recJump {
		return recHeader{}, false
	}
	if h.nblocks < 1 || h.payloadLen < 0 || h.payloadLen > summaryCapacity(h.nblocks) {
		return recHeader{}, false
	}
	if summaryBlocks(h.payloadLen) != h.nblocks {
		return recHeader{}, false
	}
	return h, true
}

// encodeDeltaLocked serializes the pending journal deltas. Map-derived
// sections are sorted so identical histories produce identical records.
// Caller holds fs.mu exclusively.
func (fs *FS) encodeDeltaLocked() ([]byte, error) {
	var buf []byte
	buf = binary.BigEndian.AppendUint64(buf, uint64(fs.next))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fs.jDirOps)))
	for _, op := range fs.jDirOps {
		if len(op.name) > 255 || len(op.newName) > 255 {
			return nil, fmt.Errorf("lfs: journaled name too long")
		}
		buf = append(buf, op.op)
		buf = binary.BigEndian.AppendUint64(buf, uint64(op.ino))
		buf = append(buf, op.affinity)
		buf = append(buf, byte(len(op.name)))
		buf = append(buf, op.name...)
		buf = append(buf, byte(len(op.newName)))
		buf = append(buf, op.newName...)
	}

	inos := make([]Ino, 0, len(fs.jImap))
	for ino := range fs.jImap {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(inos)))
	for _, ino := range inos {
		buf = binary.BigEndian.AppendUint64(buf, uint64(ino))
		if pba, ok := fs.imap[ino]; ok {
			buf = append(buf, 0)
			buf = binary.BigEndian.AppendUint64(buf, pba)
		} else {
			buf = append(buf, 1)
			buf = binary.BigEndian.AppendUint64(buf, 0)
		}
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fs.jBlocks)))
	for _, bp := range fs.jBlocks {
		buf = binary.BigEndian.AppendUint64(buf, uint64(bp.ino))
		buf = binary.BigEndian.AppendUint32(buf, uint32(bp.idx))
		buf = binary.BigEndian.AppendUint64(buf, bp.pba)
	}
	return buf, nil
}

// decodeDelta parses a delta payload. Any structural violation fails
// the whole record — replay treats it as the end of the chain.
func decodeDelta(buf []byte) (summaryDelta, error) {
	var d summaryDelta
	bad := func(what string) (summaryDelta, error) {
		return summaryDelta{}, fmt.Errorf("lfs: malformed summary delta: %s", what)
	}
	if len(buf) < 12 {
		return bad("short header")
	}
	d.next = Ino(binary.BigEndian.Uint64(buf[0:8]))
	off := 8

	nOps := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < nOps; i++ {
		if off+11 > len(buf) {
			return bad("dir op header")
		}
		op := dirOp{op: buf[off], ino: Ino(binary.BigEndian.Uint64(buf[off+1:])), affinity: buf[off+9]}
		nl := int(buf[off+10])
		off += 11
		if off+nl+1 > len(buf) {
			return bad("dir op name")
		}
		op.name = string(buf[off : off+nl])
		off += nl
		nl2 := int(buf[off])
		off++
		if off+nl2 > len(buf) {
			return bad("dir op new name")
		}
		op.newName = string(buf[off : off+nl2])
		off += nl2
		if op.op > dirOpRename || op.name == "" || (op.op == dirOpRename && op.newName == "") {
			return bad("dir op kind")
		}
		d.dirOps = append(d.dirOps, op)
	}

	if off+4 > len(buf) {
		return bad("imap count")
	}
	nImap := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < nImap; i++ {
		if off+17 > len(buf) {
			return bad("imap entry")
		}
		e := imapDelta{
			ino:    Ino(binary.BigEndian.Uint64(buf[off:])),
			remove: buf[off+8] != 0,
			pba:    binary.BigEndian.Uint64(buf[off+9:]),
		}
		off += 17
		d.imap = append(d.imap, e)
	}

	if off+4 > len(buf) {
		return bad("block count")
	}
	nBlocks := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < nBlocks; i++ {
		if off+20 > len(buf) {
			return bad("block entry")
		}
		d.blocks = append(d.blocks, blockPtr{
			ino: Ino(binary.BigEndian.Uint64(buf[off:])),
			idx: int32(binary.BigEndian.Uint32(buf[off+8:])),
			pba: binary.BigEndian.Uint64(buf[off+12:]),
		})
		off += 20
	}
	if off != len(buf) {
		return bad("trailing bytes")
	}
	return d, nil
}

// journalDirtyLocked reports whether any delta is pending since the
// last record or checkpoint.
func (fs *FS) journalDirtyLocked() bool {
	return len(fs.jDirOps) > 0 || len(fs.jImap) > 0 || len(fs.jBlocks) > 0
}

// clearDeltasLocked resets the pending deltas after they reach the
// medium (in a record or folded into a checkpoint).
func (fs *FS) clearDeltasLocked() {
	fs.jDirOps = nil
	fs.jImap = make(map[Ino]bool)
	fs.jBlocks = nil
}

// foldJump builds the one-block jump element for the promise slot,
// folding it into the chain and advancing the in-memory chain state.
func (fs *FS) foldJump(target uint64) []byte {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], target)
	chain := chainNext(fs.jchain, fs.jseq, recJump, payload[:])
	blocks := buildRecordBlocks(recJump, fs.jseq, chain, payload[:])
	fs.jseq++
	fs.jchain = chain
	return blocks[0]
}

// foldRecord builds the delta record's blocks, folding it into the
// chain and advancing the in-memory chain state.
func (fs *FS) foldRecord(payload []byte) [][]byte {
	chain := chainNext(fs.jchain, fs.jseq, recDelta, payload)
	blocks := buildRecordBlocks(recDelta, fs.jseq, chain, payload)
	fs.jseq++
	fs.jchain = chain
	return blocks
}

// appendRecordLocked writes one delta record at the affinity-0 write
// frontier and links it from the promise slot the previous chain
// element reserved. In the common case — the promise slot sits right
// in front of the buffered run — the jump, the buffered data and the
// record commit as ONE contiguous batched write command: the
// summary-tail ack costs the same servo settle the data flush was
// paying anyway. The record always trails the data it acks, so a
// command torn at any block boundary can only lose the ack, never
// surface it without the data.
//
// Callers must have flushed every *other* affinity's buffer first.
func (fs *FS) appendRecordLocked(payload []byte) error {
	if fs.jpromise == 0 {
		return errJournalFull
	}
	tr := fs.dev.Tracer()
	t0 := fs.now()
	nb := summaryBlocks(len(payload))
	if nb+2 > fs.p.SegmentBlocks {
		return errJournalFull // record + promise can never fit one segment
	}
	// The record and the next promise slot must fit the current
	// segment; otherwise retire it and start a fresh one.
	seg, err := fs.activeLocked(0, nb+1, false)
	if err == ErrFull {
		return errJournalFull
	}
	if err != nil {
		return err
	}
	pseg := fs.sm.segOf(fs.jpromise)
	promiseOff := -1
	if pseg == seg {
		promiseOff = int(fs.jpromise - seg.start)
	}
	lo := seg.next - len(seg.pending)

	// foldJump/foldRecord advance the in-memory chain (jseq/jchain)
	// before the device write: on any write failure below, memory
	// would be ahead of the medium and every later record would be
	// silently unreplayable. Disabling the journal (jpromise = 0)
	// forces the next Sync onto the checkpoint path, which re-anchors
	// the chain from scratch.
	switch {
	case promiseOff >= 0 && promiseOff == seg.next-1 && len(seg.pending) == 0:
		// Nothing appended since the promise was reserved: the record
		// goes directly into the promise slot. One command.
		blocks := fs.foldRecord(payload)
		if err := fs.dev.WriteBlocksTraced(fs.curTask, fs.jpromise, blocks); err != nil {
			fs.jpromise = 0
			return fmt.Errorf("lfs: writing summary record: %w", err)
		}
		seg.next = promiseOff + nb
		fs.stats.JournalBlocks += uint64(nb)
	case promiseOff >= 0 && promiseOff == lo-1 && len(seg.pending) > 0:
		// The fast path: promise slot, buffered run and record are
		// contiguous — [jump][data][record] in one batched command.
		recPos := seg.start + uint64(seg.next)
		run := make([][]byte, 0, 1+len(seg.pending)+nb)
		run = append(run, fs.foldJump(recPos))
		run = append(run, seg.pending...)
		run = append(run, fs.foldRecord(payload)...)
		if err := fs.dev.WriteBlocksTraced(fs.curTask, fs.jpromise, run); err != nil {
			fs.jpromise = 0
			return fmt.Errorf("lfs: writing summary-tailed group commit: %w", err)
		}
		fs.stats.GroupCommits++
		seg.pending = nil
		seg.next += nb
		fs.stats.JournalBlocks += uint64(nb + 1)
	default:
		// The promise slot is disconnected from the frontier (a
		// mid-sync write-back flushed the buffer, or the chain tail is
		// in an earlier segment): flush what is pending, then link
		// with an explicit jump.
		if err := fs.flushSegment(seg); err != nil {
			return err
		}
		fs.stats.JournalReanchors++
		recPos := seg.start + uint64(seg.next)
		jump := fs.foldJump(recPos)
		if err := fs.dev.WriteBlocksTraced(fs.curTask, fs.jpromise, [][]byte{jump}); err != nil {
			fs.jpromise = 0
			return fmt.Errorf("lfs: writing summary jump: %w", err)
		}
		fs.stats.JournalBlocks++
		if pseg != nil {
			pseg.journal = true
		}
		fs.jpromise = recPos
		seg.next++
		blocks := fs.foldRecord(payload)
		if err := fs.dev.WriteBlocksTraced(fs.curTask, recPos, blocks); err != nil {
			fs.jpromise = 0
			return fmt.Errorf("lfs: writing summary record: %w", err)
		}
		seg.next = int(recPos-seg.start) + nb
		fs.stats.JournalBlocks += uint64(nb)
	}
	// Reserve the next promise slot right behind the record.
	fs.jpromise = seg.start + uint64(seg.next)
	seg.next++
	seg.modTime = fs.now()
	seg.journal = true
	if pseg != nil {
		pseg.journal = true
	}
	fs.stats.JournalRecords++
	fs.emitSpan(tr, "journal-record", t0, int64(len(payload)), 0)
	return nil
}

// syncJournalLocked is the summary-tail half of the durability story:
// it makes the current metadata graph durable by flushing buffers and
// appending one delta record — no checkpoint rewrite. Like
// syncMetaLocked it must be called at rest (not mid-flush). Returns
// errJournalFull when the delta needs a checkpoint instead.
func (fs *FS) syncJournalLocked() error {
	if err := fs.writeFreshInodesLocked(); err != nil {
		return err
	}
	// Everything the record is about to ack must be on the medium no
	// later than the record itself. With worker planes and two or more
	// dirty classes the whole flush fans — including affinity 0, whose
	// run is often the largest (it carries the inode metadata) — and
	// the record then commits alone, strictly after the fan-out joins.
	// Otherwise the affinity-0 buffer stays pending here and flushes
	// inside the record's own command, in front of it, riding its
	// servo settle.
	if fs.p.Concurrency > 1 && fs.dirtyAffinitiesLocked() >= 2 {
		if err := fs.flushActiveLocked(); err != nil {
			return err
		}
	} else if err := fs.flushOtherAffinitiesLocked(); err != nil {
		return err
	}
	if !fs.journalDirtyLocked() && fs.sm.freeingSegments() == 0 {
		// Nothing to ack, nothing gated: no record needed. (No deltas
		// also means nothing was appended, so no affinity-0 buffer can
		// be pending — but flush defensively.)
		return fs.flushSegment(fs.active[0])
	}
	payload, err := fs.encodeDeltaLocked()
	if err != nil {
		return err
	}
	if err := fs.appendRecordLocked(payload); err != nil {
		return err
	}
	fs.clearDeltasLocked()
	// The record is the covering point for the cleaner's relocations:
	// any mount that could reach a reused segment replays through it.
	fs.sm.convertFreeing()
	return nil
}
