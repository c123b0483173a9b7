package lfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"sero/internal/device"
)

// Checkpointing. The checkpoint region at the front of the device is
// split into two alternating slots; epoch N lands in slot (N-1)%2, so
// a crash tearing the slot being written always leaves the previous
// checkpoint intact — Mount picks the newest valid slot and rolls
// forward through that epoch's summary chain (replay.go). A wide slot
// is written and read fanned over the worker planes, in the same
// contiguous per-plane shares (planeShares). Each slot
// holds the serialized imap and directory plus the journal anchor
// (epoch, virtual write time, chain start), followed by an optional
// *liveness table*: the per-segment usage summary (every live block's
// owner) that lets a mount rebuild the segments' owner tables
// without re-reading a single inode. The table is framed and
// checksummed independently of the core payload, so a damaged table
// degrades the mount to the full inode walk instead of invalidating
// the whole slot; a table too large for the slot is omitted (length
// 0), with the same fallback, and counted (Stats.CheckpointTableOmitted).
//
// A checkpoint is a replay shortcut, not the unit of durability:
// Sync normally appends a summary record and leaves the checkpoint
// alone. Checkpoints are written when the policy says so
// (Params.CheckpointEvery appended blocks), on explicit Checkpoint(),
// and whenever a delta cannot be journaled.

const (
	ckptMagic = "SCK3"
	// tableMagic heads the serialized liveness table inside a slot.
	tableMagic = "SLT1"
)

// ErrBadCheckpoint reports that no valid checkpoint slot exists.
var ErrBadCheckpoint = errors.New("lfs: bad checkpoint")

// ErrTornCheckpoint reports that both checkpoint slots hold data but
// neither validates — a double-torn or corrupted checkpoint region.
// Unlike a pristine medium (ErrBadCheckpoint alone), this is evidence
// of damage: the medium has been formatted and synced, and mounting it
// as empty would silently discard the namespace. ErrTornCheckpoint
// wraps ErrBadCheckpoint, so errors.Is against either sentinel works.
var ErrTornCheckpoint = fmt.Errorf("%w: both checkpoint slots torn", ErrBadCheckpoint)

// slotBlocks is the size of one checkpoint slot in blocks.
func (fs *FS) slotBlocks() int { return fs.p.CheckpointBlocks / 2 }

// ckptSum is the integrity checksum over a serialized checkpoint (and,
// separately, over its liveness table).
func ckptSum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// liveRef is one liveness-table entry: block pba is live and owned by
// ino (idx is the data block index, or -1 for the inode block itself).
type liveRef struct {
	pba uint64
	ino Ino
	idx int32
}

// appendTableLocked appends the serialized per-segment liveness
// table to buf: for every segment, in id order, its live blocks in
// offset order with their owners, from the segments' owner slots.
// Deterministic by construction — identical histories produce
// identical tables. Caller holds fs.mu exclusively.
func (fs *FS) appendTableLocked(buf []byte) []byte {
	buf = append(buf, tableMagic...)
	groups := 0
	groupCountAt := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0) // patched below
	for _, s := range fs.sm.segs {
		if s.live == 0 {
			continue
		}
		groups++
		buf = binary.BigEndian.AppendUint32(buf, uint32(s.id))
		countAt := len(buf)
		buf = binary.BigEndian.AppendUint16(buf, 0) // patched below
		for off, ref := range s.owners {
			if ref.ino == 0 {
				continue
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(off))
			buf = binary.BigEndian.AppendUint64(buf, uint64(ref.ino))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(ref.idx)))
		}
		binary.BigEndian.PutUint16(buf[countAt:], uint16(s.live))
	}
	binary.BigEndian.PutUint32(buf[groupCountAt:], uint32(groups))
	return buf
}

// parseTable decodes and cross-checks a slot's liveness table against
// the slot's own imap. A non-empty reason means the table must not be
// trusted — the mount falls back to the full inode walk. The checks
// are purely structural and in-memory (no device reads): segment ids
// and offsets in range and strictly ordered, every owner present in
// the imap, and exactly one inode-block entry per ino that appears,
// agreeing with the imap pointer. Heated files legitimately have no
// entries at all (their blocks live under line pins, not the live
// map).
func (fs *FS) parseTable(buf []byte, imap map[Ino]uint64) ([]liveRef, string) {
	if len(buf) < 8 || string(buf[:4]) != tableMagic {
		return nil, "bad table magic"
	}
	groups := int(binary.BigEndian.Uint32(buf[4:8]))
	off := 8
	// Non-nil even when empty: a zero-group table (empty or all-heated
	// namespace) is valid, and nil is the "rejected" sentinel.
	refs := []liveRef{}
	inoBlock := make(map[Ino]uint64) // ino -> its idx==-1 entry's pba
	hasData := make(map[Ino]bool)
	lastSeg := -1
	for g := 0; g < groups; g++ {
		if off+6 > len(buf) {
			return nil, "truncated group header"
		}
		segID := int(binary.BigEndian.Uint32(buf[off:]))
		count := int(binary.BigEndian.Uint16(buf[off+4:]))
		off += 6
		if segID <= lastSeg || segID >= len(fs.sm.segs) {
			return nil, "segment id out of order or range"
		}
		lastSeg = segID
		if count == 0 || count > fs.sm.segBlocks {
			return nil, "group count out of range"
		}
		seg := fs.sm.segs[segID]
		lastOff := -1
		for i := 0; i < count; i++ {
			if off+14 > len(buf) {
				return nil, "truncated entry"
			}
			bo := int(binary.BigEndian.Uint16(buf[off:]))
			ino := Ino(binary.BigEndian.Uint64(buf[off+2:]))
			idx := int32(binary.BigEndian.Uint32(buf[off+10:]))
			off += 14
			if bo <= lastOff || bo >= fs.sm.segBlocks {
				return nil, "block offset out of order or range"
			}
			lastOff = bo
			pba := seg.start + uint64(bo)
			ipba, known := imap[ino]
			if !known {
				return nil, "owner not in imap"
			}
			if idx == -1 {
				if _, dup := inoBlock[ino]; dup {
					return nil, "duplicate inode-block entry"
				}
				if ipba != pba {
					return nil, "inode-block entry disagrees with imap"
				}
				inoBlock[ino] = pba
			} else if idx < 0 {
				return nil, "negative data index"
			} else {
				hasData[ino] = true
			}
			refs = append(refs, liveRef{pba: pba, ino: ino, idx: idx})
		}
	}
	if off != len(buf) {
		return nil, "trailing bytes"
	}
	for ino := range hasData {
		if _, ok := inoBlock[ino]; !ok {
			return nil, "data entries without an inode-block entry"
		}
	}
	return refs, ""
}

// keyOrder keeps a map's keys in ascending order across checkpoints
// without re-sorting the whole namespace each time: sorted is the
// order the last merge produced, added the keys inserted into the map
// since (unsorted; duplicates and keys removed again are allowed).
// Every key of the map is in sorted or added. A mount starts with
// every key in added, so its first checkpoint sorts once in full.
type keyOrder[K cmp.Ordered, V any] struct {
	sorted []K
	added  []K
	spare  []K // the previous order's backing array, reused by merge
}

// add records a key newly inserted into the map.
func (o *keyOrder[K, V]) add(k K) { o.added = append(o.added, k) }

// reset forgets the order and re-seeds it with every key of m — the
// mount-time full rebuild.
func (o *keyOrder[K, V]) reset(m map[K]V) {
	o.sorted = o.sorted[:0]
	o.added = o.added[:0]
	for k := range m {
		o.added = append(o.added, k)
	}
}

// merge sorts the added keys and merges them into the order, dropping
// duplicates and keys no longer in m, calling emit for every key that
// survives with its value, in ascending order. The merged order
// replaces sorted. Cost: O(len(m) + a·log a) for a keys added since
// the last merge.
func (o *keyOrder[K, V]) merge(m map[K]V, emit func(K, V)) {
	slices.Sort(o.added)
	out := o.spare[:0]
	old, add := o.sorted, o.added
	for len(old) > 0 || len(add) > 0 {
		var k K
		if len(add) == 0 || (len(old) > 0 && old[0] <= add[0]) {
			k, old = old[0], old[1:]
		} else {
			k, add = add[0], add[1:]
		}
		if n := len(out); n > 0 && out[n-1] == k {
			continue
		}
		if v, ok := m[k]; ok {
			out = append(out, k)
			emit(k, v)
		}
	}
	o.spare = o.sorted
	o.sorted = out
	o.added = o.added[:0]
}

// encodeSlotLocked serializes the checkpoint slot image for epoch and
// anchor jstart into fs.ckptBuf, which is reused across checkpoints:
// the core payload (journal anchor, imap, directory) framed by its
// length and checksum, then the liveness table under its own
// length+checksum framing (length 0 when it does not fit the slot),
// zero-padded to whole blocks. Both frames are patched in place, so
// the image is built in one pass with no copies. The imap and
// directory are emitted in ascending key order, merged from the
// previous checkpoint's order (keyOrder), so a checkpoint sorts only
// the keys inserted since the last one. tableOmitted reports that the
// table was left out. Caller holds fs.mu exclusively; the image is
// valid until the next call.
func (fs *FS) encodeSlotLocked(epoch, jstart uint64) (img []byte, tableOmitted bool, err error) {
	buf := append(fs.ckptBuf[:0], make([]byte, 8)...) // core length, patched below
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint64(buf, uint64(fs.now()))
	buf = binary.BigEndian.AppendUint64(buf, uint64(fs.next))
	buf = binary.BigEndian.AppendUint64(buf, jstart)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fs.imap)))
	fs.inoOrder.merge(fs.imap, func(ino Ino, pba uint64) {
		buf = binary.BigEndian.AppendUint64(buf, uint64(ino))
		buf = binary.BigEndian.AppendUint64(buf, pba)
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(fs.dir)))
	fs.nameOrder.merge(fs.dir, func(n string, ino Ino) {
		if len(n) > 255 && err == nil {
			err = fmt.Errorf("lfs: name %q too long", n)
		}
		buf = append(buf, byte(len(n)))
		buf = append(buf, n...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(ino))
	})
	if err != nil {
		return nil, false, err
	}
	binary.BigEndian.PutUint64(buf, uint64(len(buf)-8))
	buf = binary.BigEndian.AppendUint64(buf, ckptSum(buf[8:]))

	// The liveness table follows under its own framing, so a damaged
	// or oversized table costs only the table, never the checkpoint.
	// Its offset and count fields are uint16: segments beyond 64Ki
	// blocks cannot be represented, so the table is omitted (the mount
	// then walks) rather than emitted to be rejected forever.
	tlenAt := len(buf)
	buf = append(buf, make([]byte, 8)...) // table length, patched below
	if fs.p.SegmentBlocks <= 0xFFFF {
		buf = fs.appendTableLocked(buf)
	}
	tableOmitted = len(buf) == tlenAt+8 || len(buf)+8 > fs.slotBlocks()*device.DataBytes
	if tableOmitted {
		buf = buf[:tlenAt+8]
	} else {
		binary.BigEndian.PutUint64(buf[tlenAt:], uint64(len(buf)-(tlenAt+8)))
		buf = binary.BigEndian.AppendUint64(buf, ckptSum(buf[tlenAt+8:]))
	}
	// Without a table the length stays an explicit zero, so a reader
	// never misparses stale residue from an earlier, larger checkpoint
	// in the same slot.
	n := len(buf)
	needBlocks := (n + device.DataBytes - 1) / device.DataBytes
	if needBlocks > fs.slotBlocks() {
		return nil, false, fmt.Errorf("lfs: checkpoint of %d blocks exceeds slot of %d (region %d)",
			needBlocks, fs.slotBlocks(), fs.p.CheckpointBlocks)
	}
	buf = slices.Grow(buf, needBlocks*device.DataBytes-n)[:needBlocks*device.DataBytes]
	clear(buf[n:])
	fs.ckptBuf = buf
	return buf, tableOmitted, nil
}

// writeCheckpointLocked writes imap+directory (and the liveness
// table, when it fits the slot) into the next checkpoint slot
// (writeSlotLocked, fanned when the image is wide) and re-anchors the
// summary chain at the affinity-0 write frontier, where the slot's
// jstart names the promise block the first record of the new epoch
// must land in.
func (fs *FS) writeCheckpointLocked() error {
	tr := fs.dev.Tracer()
	t0 := fs.now()
	epoch := fs.ckptEpoch + 1
	// Pick the anchor: the next free block of the affinity-0 appender.
	// The slot is only reserved — and the chain state only reset —
	// after the checkpoint write succeeds, so a failed or torn
	// checkpoint leaves the previous chain fully intact for fallback.
	var jstart uint64
	seg, err := fs.activeLocked(0, 1, false)
	switch {
	case err == nil:
		jstart = seg.start + uint64(seg.next)
	case err != ErrFull:
		return err
	}
	// jstart == 0 means no free segment was left to anchor a chain:
	// the log base is never 0, so replay reads it as "no chain" and
	// every following Sync falls back to a full checkpoint.

	img, tableOmitted, err := fs.encodeSlotLocked(epoch, jstart)
	if err != nil {
		return err
	}
	if tableOmitted {
		fs.stats.CheckpointTableOmitted++
	}
	// The device copies each payload into its frame during the call,
	// so the blocks may alias the reused image buffer.
	blocks := fs.ckptBlocks[:0]
	for off := 0; off < len(img); off += device.DataBytes {
		blocks = append(blocks, img[off:off+device.DataBytes:off+device.DataBytes])
	}
	fs.ckptBlocks = blocks
	if err := fs.writeSlotLocked(fs.slotBase(epoch), blocks); err != nil {
		// Nothing was reserved and the chain state is untouched: the
		// previous checkpoint and its chain remain authoritative.
		return fmt.Errorf("lfs: writing checkpoint: %w", err)
	}
	// The old chain is obsolete now that the checkpoint is on the
	// medium: release its segments to the cleaner and reserve the new
	// anchor's promise slot.
	for _, s := range fs.sm.segs {
		s.journal = false
	}
	fs.jpromise = jstart
	if seg != nil {
		seg.next++
		seg.journal = true
	}
	fs.ckptEpoch = epoch
	fs.jepoch = epoch
	fs.jseq = 1
	fs.jchain = chainSeed(epoch)
	fs.appended = 0
	fs.clearDeltasLocked()
	fs.stats.Checkpoints++
	fs.emitSpan(tr, "checkpoint", t0, int64(len(blocks)), int64(epoch))
	return nil
}

// writeSlotLocked writes a checkpoint slot image at base. A wide image
// is fanned over worker planes in the contiguous shares the mount's
// slot read uses (planeShares), one batched command per plane; a narrow
// one, or Concurrency 1, is one serial command on the foreground
// plane. The bytes and blocks written are the same either way; only
// the virtual time differs.
//
// Any share's error fails the write. A refused command writes nothing,
// but the other shares land, so the slot may be left torn with a hole
// (a later share on the medium, an earlier one not); the checksums
// reject such a slot, as they reject a torn serial write. They cannot
// reject a slot whose refused share lies past the core frame: it holds
// epoch N's whole core, and a mount would prefer it to the chain the
// failure leaves authoritative. So when the header's share landed and
// another did not, the header block is blanked: a zero first block
// reads as a slot that holds no checkpoint.
func (fs *FS) writeSlotLocked(base uint64, blocks [][]byte) error {
	errs := fs.writeSharesLocked(base, blocks)
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errs[0] == nil {
			blank := [][]byte{make([]byte, device.DataBytes)}
			if berr := fs.dev.WriteBlocksTraced(fs.curTask, base, blank); berr != nil {
				return errors.Join(err, fmt.Errorf("blanking the slot header: %w", berr))
			}
		}
		return err
	}
	return nil
}

// ckptImage is one parsed checkpoint slot. A mount adopts its imap
// and dir as the FS's own maps.
type ckptImage struct {
	epoch     uint64
	writtenAt uint64
	next      Ino
	jstart    uint64
	imap      map[Ino]uint64
	dir       map[string]Ino
	// table is the slot's parsed liveness table (nil when absent or
	// rejected); tablePresent records that a non-empty table was
	// written, and tableStop why it was rejected, for diagnostics.
	table        []liveRef
	tablePresent bool
	tableStop    string
}

// frameAt decodes the length field at byte offset at of a checkpoint
// slot image, which is two frames back to back, zero-padded to whole
// blocks:
//
//	[len u64][core payload][sum u64][tlen u64][table payload][sum u64]
//
// Each length counts its payload and each sum is the ckptSum of its
// payload; a table length of 0 stands alone (no table). frameAt,
// framePayload and claimedEpoch are the layout's only decoders. It
// returns the payload length n and the frame's end, past its sum (past
// the bare length when n is 0); ok is false when the length field is
// not in img or the frame would end past limit.
func frameAt(img []byte, at, limit int) (n, end int, ok bool) {
	if at+8 > len(img) {
		return 0, 0, false
	}
	l := binary.BigEndian.Uint64(img[at:])
	if l == 0 {
		return 0, at + 8, at+8 <= limit
	}
	// No checksum covers the length field, so bound it before any
	// arithmetic: a corrupt value near 2^64 would otherwise wrap.
	if l > uint64(limit) || at+16+int(l) > limit {
		return 0, 0, false
	}
	return int(l), at + 16 + int(l), true
}

// framePayload returns the n-byte payload of the frame at byte offset
// at when img holds the whole frame and its sum agrees, nil otherwise.
func framePayload(img []byte, at, n int) []byte {
	if at+16+n > len(img) {
		return nil
	}
	payload := img[at+8 : at+8+n]
	if ckptSum(payload) != binary.BigEndian.Uint64(img[at+8+n:]) {
		return nil
	}
	return payload
}

// claimedEpoch returns the core epoch a slot's first block claims,
// unvalidated.
func claimedEpoch(first []byte) uint64 { return binary.BigEndian.Uint64(first[12:20]) }

// SlotTable locates the liveness-table payload in a checkpoint slot's
// readable prefix img: its byte offset and length, with the 8-byte
// length field just before it and the 8-byte checksum just after. ok
// is false when img holds no intact core frame or no whole table
// frame. Tools that damage the table on purpose locate it here.
func SlotTable(img []byte) (off, n int, ok bool) {
	cn, coreEnd, ok := frameAt(img, 0, len(img)-8)
	if !ok || cn == 0 || framePayload(img, 0, cn) == nil {
		return 0, 0, false
	}
	tn, _, ok := frameAt(img, coreEnd, len(img))
	if !ok || tn == 0 {
		return 0, 0, false
	}
	return coreEnd + 8, tn, true
}

// slotBase is the first block of the slot epoch's checkpoint lands in.
func (fs *FS) slotBase(epoch uint64) uint64 { return (epoch - 1) % 2 * uint64(fs.slotBlocks()) }

// readSlot validates the checkpoint slot at base, whose first block,
// already read and not all zeros, is first. A nil image means the slot
// holds damaged data: a torn checkpoint write, or corruption. A
// damaged liveness table rejects only the table (ck.table nil,
// ck.tableStop set), and the mount walks instead. Past the first
// block the slot costs two reads, each fanned when wide: the core
// frame with the table length behind it, then the table frame.
func (fs *FS) readSlot(base uint64, first []byte) *ckptImage {
	slotBytes := fs.slotBlocks() * device.DataBytes
	// The core frame must leave room for the table length behind it.
	cn, coreEnd, ok := frameAt(first, 0, slotBytes-8)
	if !ok || cn == 0 {
		return nil
	}
	img := fs.readSlotTo(base, first, coreEnd+8)
	ck := decodeCore(framePayload(img, 0, cn))
	if ck == nil {
		return nil
	}
	tn, tableEnd, ok := frameAt(img, coreEnd, slotBytes)
	ck.tablePresent = coreEnd+8 <= len(img) && (tn > 0 || !ok)
	if ck.tablePresent && ok {
		img = fs.readSlotTo(base, img, tableEnd)
	}
	var reason string
	switch table := framePayload(img, coreEnd, tn); {
	case coreEnd+8 > len(img):
		ck.tableStop = "table length unreadable"
	case !ok:
		ck.tableStop = "table length exceeds slot"
	case tn == 0:
		ck.tableStop = "no table in slot"
	case tableEnd > len(img):
		ck.tableStop = "table torn (unreadable blocks)"
	case table == nil:
		ck.tableStop = "table checksum mismatch"
	default:
		if ck.table, reason = fs.parseTable(table, ck.imap); reason != "" {
			ck.tableStop = "table cross-check failed: " + reason
		}
	}
	return ck
}

// readSlotTo extends img, the first whole blocks of the slot at base,
// to the blocks holding its first n bytes in one ReadablePrefix pass;
// the blocks from the first unreadable one on are left out.
func (fs *FS) readSlotTo(base uint64, img []byte, n int) []byte {
	have := len(img) / device.DataBytes
	need := (n + device.DataBytes - 1) / device.DataBytes
	data, _ := ReadablePrefix(fs.dev, base+uint64(have), need-have, fs.p.Concurrency)
	return append(img, data...)
}

// decodeCore parses a checkpoint's core payload; nil when the payload
// is missing or malformed.
func decodeCore(buf []byte) *ckptImage {
	if len(buf) < 40 || string(buf[:4]) != ckptMagic {
		return nil
	}
	ck := &ckptImage{
		epoch:     binary.BigEndian.Uint64(buf[4:12]),
		writtenAt: binary.BigEndian.Uint64(buf[12:20]),
		next:      Ino(binary.BigEndian.Uint64(buf[20:28])),
		jstart:    binary.BigEndian.Uint64(buf[28:36]),
		imap:      make(map[Ino]uint64),
		dir:       make(map[string]Ino),
	}
	if ck.epoch == 0 {
		return nil
	}
	off := 36
	nImap := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if off+16*nImap > len(buf) {
		return nil
	}
	for i := 0; i < nImap; i++ {
		ino := Ino(binary.BigEndian.Uint64(buf[off:]))
		pba := binary.BigEndian.Uint64(buf[off+8:])
		off += 16
		ck.imap[ino] = pba
	}
	if off+4 > len(buf) {
		return nil
	}
	nDir := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < nDir; i++ {
		if off+1 > len(buf) {
			return nil
		}
		nl := int(buf[off])
		off++
		if off+nl+8 > len(buf) {
			return nil
		}
		name := string(buf[off : off+nl])
		off += nl
		ino := Ino(binary.BigEndian.Uint64(buf[off:]))
		off += 8
		ck.dir[name] = ino
	}
	return ck
}

// ReadablePrefix magnetically reads the block range [base,
// base+blocks) and returns the concatenated payloads up to (not
// including) the first unreadable block, plus whether the whole range
// was readable. It is the one readable-prefix primitive shared by the
// mount path's checkpoint-slot and summary-record reads and
// serofsck's damage probes — all need "give me as much of this region
// as the medium still yields" semantics. Wide ranges are fanned over
// up to workers device planes in planeShares' contiguous shares; narrow
// ranges and workers <= 1 read serially on the foreground probe, which
// pays no per-plane positioning seek.
func ReadablePrefix(dev device.Dev, base uint64, blocks, workers int) ([]byte, bool) {
	if blocks <= 0 {
		return nil, true
	}
	_, workers = planeShares(blocks, workers)
	if workers <= 1 {
		out := make([]byte, 0, blocks*device.DataBytes)
		for i := 0; i < blocks; i++ {
			b, err := dev.MRSTraced(nil, base+uint64(i))
			if err != nil {
				return out, false
			}
			out = append(out, b...)
		}
		return out, true
	}
	pbas := make([]uint64, blocks)
	for i := range pbas {
		pbas[i] = base + uint64(i)
	}
	bufs, errs := dev.ReadBlocksFanned(pbas, workers)
	out := make([]byte, 0, blocks*device.DataBytes)
	for i, b := range bufs {
		if errs[i] != nil {
			return out, false
		}
		out = append(out, b...)
	}
	return out, true
}

// loadBestCheckpoint returns the valid checkpoint slot with the
// highest epoch. It reads each slot's first block once, then validates
// the slot whose first block claims the newer epoch, touching the
// other only when that one fails, so a healthy mount pays for one slot,
// not two. A lying epoch in a torn slot only reorders the fallback,
// never the outcome. A nil image with torn=true means at least one slot
// holds data and none validates: the double-torn condition Mount must
// refuse. Nil with torn=false means the medium was never checkpointed.
func (fs *FS) loadBestCheckpoint() (ck *ckptImage, torn bool) {
	type slot struct {
		base  uint64
		first []byte
	}
	var written []slot
	for _, base := range []uint64{0, uint64(fs.slotBlocks())} {
		// An unreadable or all-zero first block is the unwritten shape:
		// the medium frames every written block, so a torn slot write
		// still leaves readable blocks behind.
		first, err := fs.dev.MRSTraced(nil, base)
		if err == nil && slices.ContainsFunc(first, func(b byte) bool { return b != 0 }) {
			written = append(written, slot{base, first})
		}
	}
	if len(written) == 2 && claimedEpoch(written[1].first) > claimedEpoch(written[0].first) {
		written[0], written[1] = written[1], written[0]
	}
	for _, s := range written {
		if ck := fs.readSlot(s.base, s.first); ck != nil {
			return ck, false
		}
	}
	return nil, len(written) > 0
}
