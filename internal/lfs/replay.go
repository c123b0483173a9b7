package lfs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"sero/internal/device"
)

// Mount-time roll-forward. A mount loads the newest valid checkpoint
// slot and replays the epoch's summary chain record by record:
// sequence numbers must be contiguous, each checksum must chain from
// the previous one, and the first torn, stale or malformed record ends
// the chain *cleanly* — recovery surfaces the last consistent state,
// never an error, because a torn tail is the expected shape of a
// crash. Replay rewrites the in-memory maps (imap, directory,
// next-ino) and records which inos the tail touched; liveness is then
// rebuilt one of two ways:
//
//   - table-driven (the fast path): the slot's liveness table already
//     names every live block and its owner as of the checkpoint, so
//     only the inos the replayed tail touched need their inodes
//     re-read — mount cost is O(segments + replayed tail), independent
//     of the namespace size;
//   - full walk (the fallback): when the table is absent, torn or
//     fails its cross-check, every inode in the imap is read back, the
//     pre-table behaviour. The walk fans out over Params.Concurrency
//     worker planes (ino-sorted static split, slowest-worker virtual
//     time — the Audit contract).
//
// Either way all liveness is stamped with one timestamp taken after
// the reads, so mount-time segment ages — and with them the cleaner's
// future victim choices — depend on neither map iteration order nor
// the worker count, and a table mount is state-identical to a
// walk mount of the same image.

// replayTrace records what the roll-forward pass saw, for the
// mount's liveness rebuild and CheckJournal's report; neither keeps it
// past its own call.
type replayTrace struct {
	// ck is the checkpoint slot the chain hangs off, with its parsed
	// liveness table (ck.table nil when absent or rejected, ck.tableStop
	// saying why) for the liveness rebuild.
	ck       *ckptImage
	records  int // delta records applied
	jumps    int
	blocks   int // total blocks the replayed tail occupies
	appended int // log blocks the replayed records cover (policy seed)
	lastSeq  uint64
	stop     string
	// latest holds the newest data back-pointer per (ino, idx) seen in
	// the applied records, for the fsck imap cross-check.
	latest map[blockKey]uint64
	// touched marks inos whose liveness the replayed tail may have
	// changed (imap deltas and data back-pointers): a table-driven
	// mount discards their table entries and re-reads their inodes.
	touched map[Ino]bool
}

type blockKey struct {
	ino Ino
	idx int32
}

// Mount reconstructs a file system from a device previously formatted
// and synced by this package: it loads the newest valid checkpoint
// slot, rolls forward through the summary chain, and rebuilds all
// in-memory state (owner tables, segment states, pins) from the slot's
// liveness table — falling back to a fanned-out walk of the inodes the
// imap references — plus the device's heated-line registry. The
// journal chain is adopted as-is, so the mounted FS keeps appending
// summary records where the previous incarnation stopped. A medium
// whose checkpoint slots are both damaged refuses to mount
// (ErrTornCheckpoint) rather than coming up empty.
func Mount(dev device.Dev, p Params) (*FS, error) {
	return mount(dev, p, true)
}

// mount is Mount with the liveness table's use as a parameter: with
// useTable false it ignores a valid table and rebuilds liveness with
// the full inode walk, the fallback a table-driven mount must match.
func mount(dev device.Dev, p Params, useTable bool) (*FS, error) {
	fs, err := New(dev, p)
	if err != nil {
		return nil, err
	}
	t, err := fs.loadAndReplay()
	if err != nil {
		return nil, err
	}
	if !useTable {
		t.ck.table, t.ck.tableStop = nil, "liveness table not used"
	}
	// The trace (and the slot's parsed table with it) dies with the
	// mount: only the liveness rebuild reads it.
	if err := fs.rebuildLiveness(t); err != nil {
		return nil, err
	}
	// Pin segments containing heated lines, per the device registry.
	for _, li := range dev.Lines() {
		fs.sm.pin(li.Start, int(li.Blocks()))
	}
	// Segments that hold live or heated data are full; the rest are
	// free. (Active appenders are not restored; new writes open fresh
	// segments.) Segments carrying the replayed chain — or its tail
	// promise slot — must not be handed out to fresh appends either,
	// whatever their live count: overwriting a chain block would sever
	// the next crash-mount's replay.
	for _, s := range fs.sm.segs {
		if s.state == SegPinned {
			continue
		}
		if s.live > 0 || s.journal {
			s.state = SegFull
			s.next = fs.p.SegmentBlocks
		}
	}
	return fs, nil
}

// rebuildLiveness reconstructs the segments' owner tables and usage
// from the checkpointed liveness table when the replay trace t adopted
// one, and from the full inode walk otherwise. All liveness is stamped with a
// single timestamp taken after every device read, so the resulting
// state is identical for any fan-out width and any map iteration
// order.
func (fs *FS) rebuildLiveness(t *replayTrace) error {
	tr := fs.dev.Tracer()
	t0 := fs.now()
	fs.mstats = MountStats{Records: t.records, Workers: fs.p.Concurrency}
	if t.ck.table == nil {
		fs.mstats.Fallback = t.ck.tableStop
		if err := fs.walkLiveness(); err != nil {
			return err
		}
		fs.emitSpan(tr, "mount-walk", t0, int64(fs.mstats.InodesRead), 0)
		return nil
	}
	// Table-driven: entries of inos the replayed tail touched are
	// stale — those inos' inodes are re-read from the medium (the
	// O(replayed tail) part); everything else is adopted as written.
	keep := make([]liveRef, 0, len(t.ck.table))
	for _, r := range t.ck.table {
		if !t.touched[r.ino] {
			keep = append(keep, r)
		}
	}
	inos := make([]Ino, 0, len(t.touched))
	for ino := range t.touched {
		if _, ok := fs.imap[ino]; ok {
			inos = append(inos, ino)
		}
	}
	slices.Sort(inos)
	if err := fs.loadInodesFanned(inos); err != nil {
		return err
	}
	now := fs.now()
	for _, r := range keep {
		fs.sm.setOwner(r.pba, blockRef{ino: r.ino, idx: int(r.idx)}, now)
	}
	fs.markInodesLive(inos, now)
	fs.mstats.TableMount = true
	fs.mstats.TableRefs = len(keep)
	fs.mstats.InodesRead = len(inos)
	fs.emitSpan(tr, "mount-table", t0, int64(len(keep)), int64(len(inos)))
	return nil
}

// walkLiveness is the fallback liveness rebuild: read every inode the
// imap references (fanned over Params.Concurrency worker planes, in
// ino-sorted order) and mark every block they own live under one
// timestamp.
func (fs *FS) walkLiveness() error {
	inos := make([]Ino, 0, len(fs.imap))
	for ino := range fs.imap {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	if err := fs.loadInodesFanned(inos); err != nil {
		return err
	}
	fs.markInodesLive(inos, fs.now())
	fs.mstats.InodesRead = len(inos)
	return nil
}

// loadInodesFanned reads and caches the inodes of the given inos
// (which must be imap-resident and ino-sorted), fanning the block
// reads out over Params.Concurrency device worker planes. The reads
// are issued in block-address order — each worker's contiguous share
// then covers one run of the log, keeping its seeks local — and the
// split is fixed by the sorted input, so virtual time is
// deterministic. Failures are surfaced for the lowest failing ino,
// exactly as the serial walk did.
func (fs *FS) loadInodesFanned(inos []Ino) error {
	if len(inos) == 0 {
		return nil
	}
	order := make([]int, len(inos))
	pbas := make([]uint64, len(inos))
	for i := range inos {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return fs.imap[inos[order[a]]] < fs.imap[inos[order[b]]] })
	for i, oi := range order {
		pbas[i] = fs.imap[inos[oi]]
	}
	bufs, errs := fs.dev.ReadBlocksFanned(pbas, fs.p.Concurrency)
	byIno := make(map[Ino]int, len(inos)) // ino -> index into bufs/errs
	for i, oi := range order {
		byIno[inos[oi]] = i
	}
	for _, ino := range inos {
		i := byIno[ino]
		if errs[i] != nil {
			return fmt.Errorf("lfs: reading inode %d at %d: %w", ino, pbas[i], errs[i])
		}
		in, err := UnmarshalInode(bufs[i])
		if err != nil {
			return err
		}
		if in.Ino != ino {
			return fmt.Errorf("%w: imap says %d, block says %d", ErrBadInode, ino, in.Ino)
		}
		fs.cacheInode(in)
	}
	return nil
}

// markInodesLive marks the inode block and every data block of each
// given ino live under the single timestamp now, from the cached
// inodes. Heated inos are skipped: their blocks are covered by line
// pins, not the owner tables.
func (fs *FS) markInodesLive(inos []Ino, now time.Duration) {
	for _, ino := range inos {
		ipba := fs.imap[ino]
		in, _ := fs.cachedInode(ino)
		if in.Heated() {
			continue
		}
		fs.sm.setOwner(ipba, blockRef{ino: ino, idx: -1}, now)
		for idx, pba := range in.Blocks {
			if pba == 0 {
				continue // hole sentinel, not a data block
			}
			fs.sm.setOwner(pba, blockRef{ino: ino, idx: idx}, now)
		}
	}
}

// loadAndReplay loads the newest valid checkpoint slot into the
// in-memory maps, rolls the summary chain forward and returns what the
// replay saw. Shared by Mount (which then rebuilds liveness, strictly)
// and CheckJournal (which then cross-checks, tolerantly). A region
// where both slots hold damaged data is refused as ErrTornCheckpoint —
// mounting it as a pristine empty FS would silently discard the
// namespace.
func (fs *FS) loadAndReplay() (*replayTrace, error) {
	tr := fs.dev.Tracer()
	t0 := fs.now()
	ck, torn := fs.loadBestCheckpoint()
	if ck == nil {
		if torn {
			return nil, fmt.Errorf("%w (checkpoint region damaged, refusing to mount as empty)",
				ErrTornCheckpoint)
		}
		return nil, fmt.Errorf("%w: no valid checkpoint slot", ErrBadCheckpoint)
	}
	fs.next = ck.next
	fs.ckptEpoch = ck.epoch
	// The slot's maps become the FS's own; replay edits them in place.
	fs.imap, fs.dir = ck.imap, ck.dir
	for name, ino := range fs.dir {
		fs.names[ino] = name
	}
	t := fs.replayChain(ck)
	fs.appended = uint64(t.appended + t.blocks)
	// Rebuild the maintained metadata indexes once from the replayed
	// maps: the never-written files, and a checkpoint key order that
	// makes the next checkpoint sort the namespace in full.
	for ino := range fs.names {
		if _, ok := fs.imap[ino]; !ok {
			fs.fresh[ino] = struct{}{}
		}
	}
	fs.inoOrder.reset(fs.imap)
	fs.nameOrder.reset(fs.dir)
	fs.emitSpan(tr, "mount-replay", t0, int64(t.records), int64(t.blocks))
	return t, nil
}

// replayChain rolls the in-memory maps forward through the summary
// chain anchored at ck, restoring the journal write position so the
// mounted FS continues the chain. It never fails: any invalid record
// is the end of the chain. Chain positions are deterministic — the
// anchor is the checkpoint's promise slot, a delta record is followed
// immediately by the next promise slot, and a jump names its target —
// so no scanning is involved. Every segment the chain touches is
// flagged (segment.journal) to shield it from the cleaner and from
// reallocation.
func (fs *FS) replayChain(ck *ckptImage) *replayTrace {
	t := &replayTrace{
		ck:      ck,
		latest:  make(map[blockKey]uint64),
		touched: make(map[Ino]bool),
	}
	fs.jepoch = ck.epoch
	fs.jseq = 1
	fs.jchain = chainSeed(ck.epoch)
	fs.jpromise = 0
	if ck.jstart == 0 {
		t.stop = "no journal anchor"
		return t
	}
	seg := fs.sm.segOf(ck.jstart)
	if seg == nil {
		t.stop = "journal anchor outside the log"
		return t
	}
	seg.journal = true
	visited := map[uint64]bool{}
	pos := ck.jstart
	for !visited[pos] {
		visited[pos] = true
		off := int(pos - seg.start)
		first, err := fs.dev.MRSTraced(nil, pos)
		if err != nil {
			t.stop = "end of chain (unreadable block)"
			break
		}
		h, ok := parseRecHeader(first)
		if !ok {
			t.stop = "end of chain"
			break
		}
		if h.seq != fs.jseq {
			t.stop = fmt.Sprintf("sequence break (%d, want %d)", h.seq, fs.jseq)
			break
		}
		if off+h.nblocks > fs.p.SegmentBlocks {
			t.stop = "record overflows its segment"
			break
		}
		rest, whole := ReadablePrefix(fs.dev, pos+1, h.nblocks-1, 1)
		if !whole {
			t.stop = "torn record (unreadable tail)"
			break
		}
		payload := append(first[sumHdrBytes:], rest...)[:h.payloadLen]
		want := chainNext(fs.jchain, h.seq, h.kind, payload)
		if want != h.chain {
			t.stop = "checksum break (torn or stale record)"
			break
		}
		if h.kind == recJump {
			target := binary.BigEndian.Uint64(payload)
			ns := fs.sm.segOf(target)
			if ns == nil || visited[target] {
				t.stop = "invalid jump target"
				break
			}
			ns.journal = true
			t.jumps++
			t.blocks += h.nblocks
			fs.jseq++
			fs.jchain = want
			seg, pos = ns, target
			continue
		}
		d, derr := decodeDelta(payload)
		if derr != nil {
			t.stop = "malformed delta"
			break
		}
		fs.applyDelta(d, t)
		t.records++
		t.blocks += h.nblocks
		t.lastSeq = h.seq
		fs.jseq++
		fs.jchain = want
		// The next chain element lives in the promise slot reserved
		// right behind this record.
		pos += uint64(h.nblocks)
		if ns := fs.sm.segOf(pos); ns != nil {
			ns.journal = true
			seg = ns
		} else {
			t.stop = "chain ran off the log"
			break
		}
	}
	if t.stop == "" {
		t.stop = "chain loop"
	}
	// pos is where the next chain element must be written: the mounted
	// FS continues the chain exactly there. A pathological chain (loop,
	// or one running off the log) disables the journal instead; every
	// following Sync then falls back to full checkpoints.
	if t.stop == "chain loop" || fs.sm.segOf(pos) == nil {
		fs.jpromise = 0
	} else {
		fs.jpromise = pos
	}
	return t
}

// applyDelta folds one summary record into the in-memory maps, marking
// every ino whose liveness it may have changed as replay-touched — the
// increments that keep the checkpointed liveness table current across
// the journal tail.
func (fs *FS) applyDelta(d summaryDelta, t *replayTrace) {
	if d.next > fs.next {
		fs.next = d.next
	}
	for _, op := range d.dirOps {
		switch op.op {
		case dirOpCreate:
			fs.dir[op.name] = op.ino
			fs.names[op.ino] = op.name
		case dirOpRemove:
			delete(fs.dir, op.name)
			delete(fs.names, op.ino)
		case dirOpRename:
			delete(fs.dir, op.name)
			fs.dir[op.newName] = op.ino
			fs.names[op.ino] = op.newName
		}
	}
	for _, e := range d.imap {
		t.touched[e.ino] = true
		if e.remove {
			delete(fs.imap, e.ino)
		} else {
			fs.imap[e.ino] = e.pba
		}
	}
	for _, bp := range d.blocks {
		t.touched[bp.ino] = true
		t.latest[blockKey{ino: bp.ino, idx: bp.idx}] = bp.pba
	}
	// Data back-pointers plus inode rewrites approximate the appends
	// this record covered — the CheckpointEvery policy seed, so the
	// replay-tail bound holds across remounts instead of resetting.
	t.appended += len(d.blocks) + len(d.imap)
}

// JournalReport summarises the health of the on-medium summary chain,
// as verified by CheckJournal.
type JournalReport struct {
	// Epoch is the checkpoint epoch the chain hangs off.
	Epoch uint64
	// CheckpointAge is the virtual time elapsed since the checkpoint
	// was written.
	CheckpointAge time.Duration
	// Records and Jumps count the valid records of the replayable
	// tail; TailBlocks is the log space the tail occupies.
	Records, Jumps, TailBlocks int
	// LastSeq is the sequence number of the last valid delta record.
	LastSeq uint64
	// Stop describes why the chain walk ended ("end of chain" is the
	// healthy case: the next record was simply never written).
	Stop string
	// Files and DirEntries describe the replayed state.
	Files, DirEntries int
	// ImapMismatches counts inode blocks the replayed imap points at
	// that do not parse as the right inode; BackPtrMismatches counts
	// journaled data back-pointers that disagree with the final
	// inodes. Both are 0 on a healthy image.
	ImapMismatches, BackPtrMismatches int
	// TablePresent reports that the newest checkpoint slot carries a
	// liveness table; TableValid that it parsed and cross-checked
	// against the slot's imap; TableStop describes why it did not.
	TablePresent, TableValid bool
	// TableStop is empty for a valid table; otherwise the reason the
	// table was rejected (a mount then falls back to the full walk).
	TableStop string
	// TableRefs counts liveness-table entries.
	TableRefs int
	// TableMismatches counts disagreements between the table and the
	// final inodes of replay-untouched files: blocks the inodes own
	// that the table misses or misattributes, and table entries no
	// inode backs. 0 on a healthy image.
	TableMismatches int
}

// Healthy reports whether the chain — and the liveness table, when one
// is present — verified clean.
func (r JournalReport) Healthy() bool {
	return r.ImapMismatches == 0 && r.BackPtrMismatches == 0 &&
		(!r.TablePresent || (r.TableValid && r.TableMismatches == 0))
}

// Summary renders the report in the serofsck style.
func (r JournalReport) Summary() string {
	s := fmt.Sprintf("summary chain: epoch %d, checkpoint age %v\n", r.Epoch, r.CheckpointAge)
	s += fmt.Sprintf("  replayable tail: %d records (+%d jumps) in %d blocks, last seq %d (%s)\n",
		r.Records, r.Jumps, r.TailBlocks, r.LastSeq, r.Stop)
	s += fmt.Sprintf("  replayed state: %d files, %d directory entries\n", r.Files, r.DirEntries)
	s += fmt.Sprintf("  back-pointer agreement: %d imap mismatches, %d block mismatches\n",
		r.ImapMismatches, r.BackPtrMismatches)
	switch {
	case !r.TablePresent:
		s += fmt.Sprintf("  liveness table: absent (%s)\n", r.TableStop)
	case !r.TableValid:
		s += fmt.Sprintf("  liveness table: REJECTED (%s) — mounts fall back to the full walk\n", r.TableStop)
	default:
		s += fmt.Sprintf("  liveness table: %d entries, %d disagreements with the inodes\n",
			r.TableRefs, r.TableMismatches)
	}
	return s
}

// CheckJournal verifies the summary chain the way a recovery fsck
// would: load the newest checkpoint, roll the chain forward (sequence
// continuity and chained checksums), then cross-check the replayed
// imap against the medium, the journaled back-pointers against the
// final inodes, and the checkpointed liveness table against the blocks
// those inodes actually own. Unlike Mount it is tolerant: a broken
// imap entry or a stale table entry is counted and reported, not a
// fatal error — serofsck's job is to describe the damage. The
// double-torn checkpoint region is the exception: with no consistent
// state to describe, CheckJournal surfaces ErrTornCheckpoint.
func CheckJournal(dev device.Dev, p Params) (JournalReport, error) {
	fs, err := New(dev, p)
	if err != nil {
		return JournalReport{}, err
	}
	t, err := fs.loadAndReplay()
	if err != nil {
		return JournalReport{}, err
	}
	r := JournalReport{
		Epoch:         t.ck.epoch,
		CheckpointAge: fs.now() - time.Duration(t.ck.writtenAt),
		Records:       t.records,
		Jumps:         t.jumps,
		TailBlocks:    t.blocks,
		LastSeq:       t.lastSeq,
		Stop:          t.stop,
		Files:         len(fs.imap),
		DirEntries:    len(fs.dir),
		TablePresent:  t.ck.tablePresent,
		TableValid:    t.ck.table != nil,
		TableStop:     t.ck.tableStop,
		TableRefs:     len(t.ck.table),
	}
	// Read in ascending block-address order, as loadInodesFanned does,
	// so the check's virtual time does not depend on map order.
	inos := slices.SortedFunc(maps.Keys(fs.imap), func(a, b Ino) int {
		return cmp.Compare(fs.imap[a], fs.imap[b])
	})
	inodes := make(map[Ino]*Inode, len(fs.imap))
	for _, ino := range inos {
		pba := fs.imap[ino]
		data, rerr := dev.MRSTraced(nil, pba)
		if rerr != nil {
			r.ImapMismatches++
			continue
		}
		in, uerr := UnmarshalInode(data)
		if uerr != nil || in.Ino != ino {
			r.ImapMismatches++
			continue
		}
		inodes[ino] = in
	}
	for k, pba := range t.latest {
		in, ok := inodes[k.ino]
		if !ok {
			continue // deleted since (or already counted above)
		}
		if int(k.idx) >= len(in.Blocks) || in.Blocks[k.idx] != pba {
			r.BackPtrMismatches++
		}
	}
	if t.ck.table != nil {
		r.TableMismatches = crossCheckTable(fs, t, inodes)
	}
	return r, nil
}

// crossCheckTable compares the checkpointed liveness table with the
// blocks the final inodes own, for every ino the replayed tail did not
// touch (touched inos' entries are discarded by a table mount, so
// their staleness is by design, not damage). Returns the disagreement
// count: blocks an inode owns that the table misses or misattributes,
// plus table entries no inode backs.
func crossCheckTable(fs *FS, t *replayTrace, inodes map[Ino]*Inode) int {
	want := make(map[uint64]blockRef)
	for ino, in := range inodes {
		if t.touched[ino] || in.Heated() {
			continue
		}
		want[fs.imap[ino]] = blockRef{ino: ino, idx: -1}
		for idx, pba := range in.Blocks {
			if pba != 0 {
				want[pba] = blockRef{ino: ino, idx: idx}
			}
		}
	}
	mismatches := 0
	got := make(map[uint64]blockRef, len(t.ck.table))
	for _, ref := range t.ck.table {
		if t.touched[ref.ino] {
			continue
		}
		if _, ok := inodes[ref.ino]; !ok {
			continue // unreadable inode: already an ImapMismatch
		}
		got[ref.pba] = blockRef{ino: ref.ino, idx: int(ref.idx)}
	}
	for pba, ref := range want {
		if g, ok := got[pba]; !ok || g != ref {
			mismatches++
		}
	}
	for pba := range got {
		if _, ok := want[pba]; !ok {
			mismatches++
		}
	}
	return mismatches
}
