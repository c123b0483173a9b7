package lfs

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/trace"
)

// Params configures the file system.
type Params struct {
	// SegmentBlocks is the segment size in blocks; must be a power of
	// two so heated lines stay aligned. Default 64.
	SegmentBlocks int

	// CheckpointBlocks reserves space at the front of the device for
	// the checkpoint region. It is sized independently of
	// SegmentBlocks, must be a power of two (so the log base stays
	// aligned without silent rounding surprises), and is rounded up to
	// a whole number of segments. Default one segment.
	CheckpointBlocks int

	// WritebackBlocks is the group-commit granularity of the write
	// path: appended blocks are buffered in the active segment and
	// committed to the device as one batched multi-block write once
	// this many blocks are pending (and always on segment seal and on
	// Sync). 1 writes block-at-a-time — the pre-batching behaviour,
	// paying the per-command servo settle for every block. 0 defaults
	// to SegmentBlocks (whole-segment group commit); values above
	// SegmentBlocks are clamped to it.
	WritebackBlocks int

	// Concurrency is the worker-plane fan-out width for every fanned
	// engine the FS drives: cleaning passes relocate victim blocks on
	// this many concurrent device planes, Sync flushes the
	// per-affinity-class group-commit buffers as concurrent runs (one
	// batched command per class), and Mount batches its
	// checkpoint-slot and inode reads over the same width — in every
	// case the pass costs the slowest worker's virtual time (the
	// Audit contract). 0 or 1 runs serially. The on-medium layout is
	// identical for any value (frontiers and clean destinations are
	// planned serially); only the virtual time changes.
	Concurrency int

	// CheckpointEvery is the background checkpoint policy, in blocks
	// appended to the log since the last checkpoint: Sync writes a full
	// checkpoint once at least this many blocks have been appended, and
	// only a summary record (the roll-forward journal tail) otherwise.
	// 1 checkpoints every non-empty Sync — the pre-journal behaviour.
	// 0 defaults to four segments' worth; negative values are invalid.
	CheckpointEvery int

	// HeatAware enables the SERO policies of §4.1: heated lines are
	// clustered into dedicated segments and the cleaner skips them.
	// Disabling it models a heat-oblivious LFS that mixes heated lines
	// into data segments (the E2/E3 ablation baseline).
	HeatAware bool

	// ReserveSegments is the free-segment low-water mark that triggers
	// inline cleaning on the write path — the last-ditch fallback that
	// runs while the appending thread holds the lock.
	ReserveSegments int

	// CleanWatermark enables background incremental cleaning: when the
	// free pool dips to this many segments or fewer at an allocation,
	// a background goroutine is kicked to run phased cleaning passes
	// (plan and commit under the lock, the copy phase off it) until at
	// least this many segments are reclaimable again, concurrently
	// with foreground I/O. 0 (the default) disables the background
	// cleaner: cleaning then happens only inline (ReserveSegments) or
	// via explicit Clean calls. Negative values are invalid, as are
	// watermarks no smaller than the segment population. To keep the
	// foreground off the inline path entirely, set the watermark
	// comfortably above ReserveSegments.
	CleanWatermark int

	// AuditEvery enables continuous background verification: for every
	// AuditEvery blocks appended to the log, a background goroutine
	// runs one incremental audit step (auditBatchLines heated lines
	// verified under their stripe locks only, off the foreground
	// clock — see audit.go for the round and detection-bound
	// contract). 0 (the default) disables the background auditor;
	// AuditStep remains callable either way. Negative values are
	// invalid.
	AuditEvery int
}

// DefaultParams returns the standard heat-aware configuration.
func DefaultParams() Params {
	return Params{
		SegmentBlocks:    64,
		CheckpointBlocks: 64,
		WritebackBlocks:  64,
		CheckpointEvery:  256,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      1,
	}
}

// FS errors.
var (
	// ErrNotFound reports a missing file name or inode.
	ErrNotFound = errors.New("lfs: file not found")
	// ErrExists reports a Create of an existing name.
	ErrExists = errors.New("lfs: file exists")
	// ErrFileHeated reports a mutation of a heated (frozen) file.
	ErrFileHeated = errors.New("lfs: file is heated (read-only)")
	// ErrFull reports that no free segment is available even after
	// cleaning.
	ErrFull = errors.New("lfs: file system full")
	// ErrTooLarge reports a write beyond MaxFileBytes.
	ErrTooLarge = errors.New("lfs: file too large")
)

// blockRef identifies the owner of a live block; the zero ref owns
// nothing.
type blockRef struct {
	ino Ino
	idx int // data block index, or -1 for the inode block itself
}

// FS is a log-structured file system over a SERO device.
//
// Locking: fs.mu is a reader/writer lock over all file-system
// metadata (maps, segment table, inode structs) and the per-segment
// group-commit buffers. Mutating operations — Create, Write, Delete,
// Sync, Clean, HeatFile — take it exclusively, but the write path is
// memory-buffered (appends land in the active segment's buffer and
// group-commit on seal/Sync), so exclusive sections do no device I/O
// outside Sync/Clean/Heat. Read-only operations take it shared and
// may read the device concurrently with each other; the inode cache
// map has its own small lock (inoMu) so concurrent readers can fill
// it without upgrading.
//
// Cleaning is the exception to "one lock scope per operation": a
// phased pass (Clean, or the CleanWatermark background goroutine)
// holds fs.mu only for its plan and commit windows and runs the copy
// phase with the lock released, with fs.cleaning held true across the
// gap and the victims clean-pinned (see cleaner.go for the protocol
// and its invariants). cleanCond broadcasts every cleaning→idle
// transition so a Sync that finds itself short of space can wait for
// an in-flight pass to commit instead of failing with ErrFull while
// reclaimable segments are seconds away.
type FS struct {
	mu  sync.RWMutex
	dev device.Dev
	p   Params

	sm   *segmentManager
	imap map[Ino]uint64 // ino -> PBA of current inode block

	// inoMu guards the inodes map itself; the *Inode structs it holds
	// are protected by fs.mu (mutated only under the exclusive lock).
	inoMu  sync.Mutex
	inodes map[Ino]*Inode // parsed inode cache (authoritative between syncs)

	dir   map[string]Ino
	names map[Ino]string
	next  Ino
	// fresh holds the inos that are named but have no inode on the log
	// yet (in names, not in imap). Create adds, Delete removes, the
	// first inode write (writeInode, HeatFile's adoption) removes, and
	// a mount rebuilds it once — so a Sync sizes and writes out the
	// never-written files without walking the namespace.
	fresh map[Ino]struct{}

	// inoOrder and nameOrder keep the imap keys and directory names in
	// ascending order across checkpoints: writeInode and HeatFile add
	// new imap keys, Create and Rename new names, and the checkpoint
	// merges the sorted additions into the previous order instead of
	// sorting the whole namespace (checkpoint.go). ckptBuf and
	// ckptBlocks are the reused slot image and its block views.
	inoOrder   keyOrder[Ino, uint64]
	nameOrder  keyOrder[string, Ino]
	ckptBuf    []byte
	ckptBlocks [][]byte

	// active data segments per affinity class.
	active map[uint8]*segment
	// heatSeg is the current heated-line segment per affinity
	// (heat-aware mode); its next is the next free offset in it.
	heatSeg map[uint8]*segment

	dirty map[Ino]map[int][]byte
	// pendSize records byte sizes promised by unflushed writes. The
	// cached Inode.Size stays the *durable* size (what the blocks on
	// the log cover), so the cleaner may rewrite an inode mid-dirty
	// without persisting a size the checkpointed data cannot back;
	// readers see max(Size, pendSize).
	pendSize map[Ino]uint64

	// cleaning serialises cleaning passes — at most one runs at a
	// time, and it also guards against the cleaner re-triggering
	// itself via its own log appends. A phased pass keeps it true
	// across the unlocked copy window; it is read and written only
	// under fs.mu. cleanCond (condition on fs.mu) is broadcast
	// whenever cleaning goes false, so space-starved syncs can wait
	// for an in-flight pass to commit.
	cleaning  bool
	cleanCond *sync.Cond

	// Background cleaner (background.go): armed lazily on the first
	// watermark dip, torn down by Close; closed refuses further arming
	// of it and of the background auditor.
	bgClean bgLoop
	closed  bool

	// Incremental audit state (audit.go): the engine is built lazily
	// on first use (AuditStep, or the first AuditEvery cadence kick)
	// and registers itself as the device's read observer. sinceAudit
	// counts blocks appended since the last cadence kick — distinct
	// from fs.appended, which resets at checkpoints. bgAudit is the
	// background auditor, armed by the first cadence kick.
	auditor    *core.IncrementalAuditor
	sinceAudit uint64
	bgAudit    bgLoop

	// Roll-forward journal state (summary.go, replay.go). The summary
	// chain lives in the data log at the affinity-0 write frontier:
	// jpromise is the reserved slot the next chain element must land
	// in (0 = journal disabled until the next checkpoint), jseq and
	// jchain the next element's sequence number and running chain
	// checksum.
	jpromise uint64
	jseq     uint64
	jchain   uint64
	jepoch   uint64
	// ckptEpoch is the epoch of the last checkpoint on the medium
	// (0 = none yet — the first Sync must checkpoint).
	ckptEpoch uint64
	// appended counts blocks appended since that checkpoint — the
	// CheckpointEvery policy input.
	appended uint64
	// Pending deltas since the last summary record or checkpoint:
	// ordered directory ops, inodes whose imap entry changed, and
	// per-block back-pointers of appended data.
	jDirOps []dirOp
	jImap   map[Ino]bool
	jBlocks []blockPtr
	// jtrace records what a Mount's roll-forward pass saw (nil on a
	// freshly formatted FS); CheckJournal reports from it.
	jtrace *replayTrace
	// mstats records how the last Mount rebuilt liveness (table-driven
	// or full walk), for diagnostics, experiments and tests.
	mstats MountStats

	// curTask is the per-operation attribution target for device time
	// charged from the current exclusive section (flushes, journal and
	// checkpoint writes, inline cleaning). It is valid ONLY while fs.mu
	// is held exclusively: lockTask sets it, unlockTask clears it, and
	// any code that releases the lock mid-operation (waitCleanIdleLocked,
	// the phased cleaner's copy window) must save and restore it around
	// the gap. Shared-lock paths (Read) must not touch it — they thread
	// their task explicitly instead (inodeTask, readPBATaskLocked).
	curTask *trace.Task

	stats Stats
}

// MountStats describes how a Mount rebuilt segment liveness.
type MountStats struct {
	// TableMount reports that liveness came from the checkpointed
	// liveness table (plus the replayed tail), not from a full walk.
	TableMount bool
	// Fallback names why the table was not used ("" when it was):
	// absent, torn, failing its cross-check, or disabled.
	Fallback string
	// TableRefs counts liveness-table entries adopted.
	TableRefs int
	// InodesRead counts inode blocks the mount read from the medium:
	// the whole namespace for a full walk, only the replay-touched
	// inos for a table mount.
	InodesRead int
	// Workers is the fan-out width the inode reads ran at.
	Workers int
}

// MountReport returns how the last Mount rebuilt liveness. The zero
// value is returned for a freshly formatted (never mounted) FS.
func (fs *FS) MountReport() MountStats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.mstats
}

// Stats counts file-system activity for the experiments.
type Stats struct {
	// BytesWritten totals the payload bytes accepted by Write.
	BytesWritten uint64
	// BlocksAppended counts blocks appended to the log.
	BlocksAppended uint64
	// GroupCommits counts batched segment writes issued by the write path.
	GroupCommits uint64
	// CleanerCopied counts live blocks the cleaner rewrote.
	CleanerCopied uint64
	// CleanerPasses counts cleaning passes (inline, explicit and background).
	CleanerPasses uint64
	// CleanerSkipped counts pinned segments the cleaner refused to touch.
	CleanerSkipped uint64
	// CleanerBgRuns counts cleaning rounds in which the background
	// watermark goroutine did real work — freed or copied something
	// (0 when CleanWatermark is off; no-op wakeups are not counted).
	CleanerBgRuns uint64
	// CleanerStaleMoves counts planned moves dropped at commit because
	// a concurrent foreground write invalidated the source mid-copy.
	CleanerStaleMoves uint64
	// HeatedFiles counts files frozen by HeatFile.
	HeatedFiles uint64
	// HeatedLineBlock counts blocks inside heated lines.
	HeatedLineBlock uint64
	// Syncs counts Sync calls.
	Syncs uint64
	// Checkpoints counts full checkpoint-region writes.
	Checkpoints uint64
	// CheckpointTableOmitted counts checkpoints written without their
	// liveness table although tables are enabled: the table did not fit
	// the slot (or segments exceed the table's 64Ki-block offsets). A
	// mount of such a slot falls back to the full inode walk.
	CheckpointTableOmitted uint64
	// JournalRecords counts summary-tail records written by Sync.
	JournalRecords uint64
	// JournalBlocks counts log blocks consumed by the journal (incl. jumps).
	JournalBlocks uint64
	// JournalReanchors counts summary records whose promised slot was
	// disconnected from the write frontier (a mid-sync write-back
	// flushed past it, or the tail sat in an earlier segment), so the
	// chain re-anchored there with an explicit jump block.
	JournalReanchors uint64
	// CheckpointFallbacks counts Syncs that wanted a summary record but
	// fell back to a full checkpoint because the delta could not be
	// journaled (errJournalFull: no promise slot, or record too large).
	CheckpointFallbacks uint64
	// AuditSteps counts incremental audit steps that verified at least
	// one line (AuditStep calls and background auditor wakeups).
	AuditSteps uint64
	// AuditRounds counts completed audit rounds — full sweeps of the
	// heated-line population (see audit.go for the round contract).
	AuditRounds uint64
	// AuditLinesChecked counts heated-line verifications performed by
	// the incremental auditor.
	AuditLinesChecked uint64
	// AuditFindings counts auditor verifications that reported
	// tampering.
	AuditFindings uint64
	// AuditPiggybacked counts lines whose audit check was pulled
	// forward by the read-observer piggyback (a cleaner or reader
	// touched the line's blocks mid-round).
	AuditPiggybacked uint64
	// AuditDeviceNS is the shadow virtual time the auditor's checks
	// would have cost the foreground clock. Audit runs off-clock, so
	// this never appears in operation latencies — it is the reported
	// price of the verification hardware.
	AuditDeviceNS uint64
	// AuditRepairs counts tamper findings the armed audit repairer
	// healed in place (see SetAuditRepairer); zero when no repairer is
	// armed.
	AuditRepairs uint64
	// AuditRepairFailures counts findings the armed repairer could not
	// heal.
	AuditRepairFailures uint64
}

// New formats a fresh file system on dev.
func New(dev device.Dev, p Params) (*FS, error) {
	if p.SegmentBlocks <= 0 {
		p = DefaultParams()
	}
	if p.SegmentBlocks&(p.SegmentBlocks-1) != 0 {
		return nil, fmt.Errorf("lfs: segment size %d not a power of two", p.SegmentBlocks)
	}
	ckpt := p.CheckpointBlocks
	if ckpt < 0 {
		return nil, fmt.Errorf("lfs: negative checkpoint size %d", ckpt)
	}
	if ckpt == 0 {
		ckpt = p.SegmentBlocks
	}
	if ckpt&(ckpt-1) != 0 {
		return nil, fmt.Errorf("lfs: checkpoint size %d not a power of two", ckpt)
	}
	// Round the checkpoint region up to whole segments so the log base
	// stays aligned (exact for power-of-two sizes of at least one
	// segment; smaller regions grow to exactly one segment).
	if rem := ckpt % p.SegmentBlocks; rem != 0 {
		ckpt += p.SegmentBlocks - rem
	}
	p.CheckpointBlocks = ckpt
	if ckpt < 2 {
		return nil, fmt.Errorf("lfs: checkpoint region of %d blocks cannot hold two slots", ckpt)
	}
	if p.CheckpointEvery < 0 {
		return nil, fmt.Errorf("lfs: negative checkpoint interval %d", p.CheckpointEvery)
	}
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 4 * p.SegmentBlocks
	}
	if p.WritebackBlocks <= 0 {
		p.WritebackBlocks = p.SegmentBlocks
	}
	if p.WritebackBlocks > p.SegmentBlocks {
		p.WritebackBlocks = p.SegmentBlocks
	}
	if p.Concurrency < 1 {
		p.Concurrency = 1
	}
	if p.CleanWatermark < 0 {
		return nil, fmt.Errorf("lfs: negative clean watermark %d", p.CleanWatermark)
	}
	if p.AuditEvery < 0 {
		return nil, fmt.Errorf("lfs: negative audit interval %d", p.AuditEvery)
	}
	logBlocks := dev.Blocks() - ckpt
	if logBlocks < 2*p.SegmentBlocks {
		return nil, fmt.Errorf("lfs: device too small: %d log blocks", logBlocks)
	}
	if p.CleanWatermark >= logBlocks/p.SegmentBlocks {
		return nil, fmt.Errorf("lfs: clean watermark %d not below the %d-segment log",
			p.CleanWatermark, logBlocks/p.SegmentBlocks)
	}
	fs := &FS{
		dev:      dev,
		p:        p,
		sm:       newSegmentManager(uint64(ckpt), logBlocks, p.SegmentBlocks),
		imap:     make(map[Ino]uint64),
		inodes:   make(map[Ino]*Inode),
		dir:      make(map[string]Ino),
		names:    make(map[Ino]string),
		fresh:    make(map[Ino]struct{}),
		next:     RootIno + 1,
		active:   make(map[uint8]*segment),
		heatSeg:  make(map[uint8]*segment),
		dirty:    make(map[Ino]map[int][]byte),
		pendSize: make(map[Ino]uint64),
		jImap:    make(map[Ino]bool),
	}
	fs.cleanCond = sync.NewCond(&fs.mu)
	return fs, nil
}

// setCleaningLocked flips the single-pass cleaning guard, broadcasting
// every cleaning→idle transition so waiters (ensureSyncSpaceLocked,
// waitCleanIdleLocked) can re-examine the free pool. Caller holds
// fs.mu exclusively.
func (fs *FS) setCleaningLocked(v bool) {
	fs.cleaning = v
	if !v {
		fs.cleanCond.Broadcast()
	}
}

// lowSpaceCleanLocked is the allocation paths' shared space policy: a
// dip to the watermark wakes the background cleaner (which runs off
// this lock); a dip to the reserve cleans inline, right here, as the
// last resort. Caller holds fs.mu exclusively. Note the inline clean
// no-ops while a phased pass is mid-copy (fs.cleaning): callers that
// are at rest should waitCleanIdleLocked first; mid-flush callers
// (appendBlock) cannot wait and rely on their operation having
// secured space up front (ensureSyncSpaceLocked).
func (fs *FS) lowSpaceCleanLocked() {
	if fs.sm.freeSegments() <= fs.p.CleanWatermark {
		fs.kickCleanerLocked()
	}
	if fs.sm.freeSegments() <= fs.p.ReserveSegments {
		fs.cleanLocked(fs.p.ReserveSegments + 1)
	}
}

// waitCleanIdleLocked blocks while an in-flight phased pass owns the
// cleaner and the free pool is short of need segments: the pass's
// commit is about to turn copied victims into reclaimable space, so
// waiting beats failing with ErrFull. Caller holds fs.mu exclusively
// and must be at rest (no flush in progress — the wait releases the
// lock); on return either the pool covers need or no pass is in
// flight (so an inline clean can run).
func (fs *FS) waitCleanIdleLocked(need int) {
	// The wait releases fs.mu, so other lock holders run in the gap:
	// clear fs.curTask before waiting (their device work — e.g. the
	// phased cleaner's commit — must not attribute to the waiter) and
	// restore it once the lock is re-held, since a traced holder's
	// unlockTask will have nil'd it.
	task := fs.curTask
	fs.curTask = nil
	for fs.cleaning && fs.sm.freeSegments() < need {
		fs.cleanCond.Wait()
	}
	fs.curTask = task
}

// Device returns the underlying device.
func (fs *FS) Device() device.Dev { return fs.dev }

// Params returns the configuration in effect.
func (fs *FS) Params() Params { return fs.p }

// Stats returns a copy of the counters. The snapshot is internally
// consistent: every mutation of fs.stats happens under the exclusive
// lock (including the background cleaner's commit window), and the
// whole struct is copied under one shared acquisition here, so a
// reader never observes a half-updated pair (e.g. CleanerPasses
// advanced but CleanerCopied not yet). The audit counters are read from
// the auditor under its own lock, which publishes a finding together
// with its repair outcome, so they agree with AuditFindings.
func (fs *FS) Stats() Stats {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	st := fs.stats
	if fs.auditor != nil {
		as := fs.auditor.Stats()
		st.AuditSteps = as.Steps
		st.AuditRounds = as.Rounds
		st.AuditLinesChecked = as.LinesChecked
		st.AuditFindings = as.Findings
		st.AuditPiggybacked = as.PiggybackHits
		st.AuditDeviceNS = as.DeviceNS
		st.AuditRepairs = as.Repairs
		st.AuditRepairFailures = as.RepairFailures
	}
	return st
}

// lockTask takes fs.mu exclusively on behalf of a traced operation:
// virtual time spent waiting for the lock is charged to task as
// lock-wait, and task becomes fs.curTask — the attribution target for
// device commands issued from this exclusive section. A nil task is
// the untraced fast path (plain Lock).
func (fs *FS) lockTask(task *trace.Task) {
	if task == nil {
		fs.mu.Lock()
		return
	}
	t0 := fs.now()
	fs.mu.Lock()
	task.AddLockWait(fs.now() - t0)
	fs.curTask = task
}

// unlockTask clears the attribution target and releases fs.mu.
// Safe for untraced sections too (curTask is already nil there).
func (fs *FS) unlockTask() {
	fs.curTask = nil
	fs.mu.Unlock()
}

// emitSpan records an lfs-category foreground span from start to the
// current virtual time when a tracer is installed; with tr nil it is
// free. Emission never advances the clock, so traced and untraced
// runs see byte-identical virtual time.
func (fs *FS) emitSpan(tr *trace.Tracer, name string, start time.Duration, v1, v2 int64) {
	if tr == nil {
		return
	}
	tr.Emit(trace.Span{
		Name: name, Cat: "lfs", Track: 0, Session: -1,
		Start: int64(start), Dur: int64(fs.now() - start), V1: v1, V2: v2,
	})
}

// now returns the device's virtual time.
func (fs *FS) now() time.Duration { return fs.dev.Clock().Now() }

// Create makes an empty file with the given heat-affinity class.
func (fs *FS) Create(name string, affinity uint8) (Ino, error) {
	return fs.CreateTraced(nil, name, affinity)
}

// CreateTraced is Create with per-operation attribution: lock-wait
// and device time accumulate on task (see trace.Task). Nil task
// behaves exactly like Create.
func (fs *FS) CreateTraced(task *trace.Task, name string, affinity uint8) (Ino, error) {
	fs.lockTask(task)
	defer fs.unlockTask()
	if name == "" {
		return 0, errors.New("lfs: empty file name")
	}
	if len(name) > 255 {
		return 0, fmt.Errorf("lfs: name %q too long", name)
	}
	if _, ok := fs.dir[name]; ok {
		return 0, fmt.Errorf("%w: %s", ErrExists, name)
	}
	ino := fs.next
	fs.next++
	fs.cacheInode(&Inode{Ino: ino, Affinity: affinity, MTime: fs.now()})
	fs.dir[name] = ino
	fs.names[ino] = name
	fs.fresh[ino] = struct{}{}
	fs.nameOrder.add(name)
	fs.jDirOps = append(fs.jDirOps, dirOp{op: dirOpCreate, ino: ino, affinity: affinity, name: name})
	return ino, nil
}

// Rename gives a file a new name. The target name must not exist.
// Renaming a heated file is allowed: the name lives in the directory,
// not inside the tamper-evident line.
func (fs *FS) Rename(oldName, newName string) error {
	return fs.RenameTraced(nil, oldName, newName)
}

// RenameTraced is Rename with per-operation attribution; nil task
// behaves exactly like Rename.
func (fs *FS) RenameTraced(task *trace.Task, oldName, newName string) error {
	fs.lockTask(task)
	defer fs.unlockTask()
	if newName == "" {
		return errors.New("lfs: empty file name")
	}
	if len(newName) > 255 {
		return fmt.Errorf("lfs: name %q too long", newName)
	}
	ino, ok := fs.dir[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldName)
	}
	if _, ok := fs.dir[newName]; ok {
		return fmt.Errorf("%w: %s", ErrExists, newName)
	}
	delete(fs.dir, oldName)
	fs.dir[newName] = ino
	fs.names[ino] = newName
	fs.nameOrder.add(newName)
	fs.jDirOps = append(fs.jDirOps, dirOp{op: dirOpRename, ino: ino, name: oldName, newName: newName})
	return nil
}

// Lookup resolves a name to an inode number.
func (fs *FS) Lookup(name string) (Ino, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, ok := fs.dir[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return ino, nil
}

// Names returns all file names.
func (fs *FS) Names() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.dir))
	for n := range fs.dir {
		out = append(out, n)
	}
	return out
}

// Stat returns a copy of the file's inode.
func (fs *FS) Stat(ino Ino) (Inode, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	in, err := fs.inodeTask(nil, ino)
	if err != nil {
		return Inode{}, err
	}
	cp := *in
	cp.Size = fs.effectiveSize(ino, in)
	cp.Blocks = append([]uint64(nil), in.Blocks...)
	cp.HeatLines = append([]uint64(nil), in.HeatLines...)
	return cp, nil
}

// cachedInode fetches from the inode cache under its own lock, so
// readers holding only fs.mu.RLock can use it.
func (fs *FS) cachedInode(ino Ino) (*Inode, bool) {
	fs.inoMu.Lock()
	defer fs.inoMu.Unlock()
	in, ok := fs.inodes[ino]
	return in, ok
}

// cacheInode stores an inode in the cache under its own lock.
func (fs *FS) cacheInode(in *Inode) {
	fs.inoMu.Lock()
	fs.inodes[in.Ino] = in
	fs.inoMu.Unlock()
}

// dropInode evicts an inode from the cache.
func (fs *FS) dropInode(ino Ino) {
	fs.inoMu.Lock()
	delete(fs.inodes, ino)
	fs.inoMu.Unlock()
}

// inodeTask resolves an inode, filling the cache from the device on a
// miss, with the read charged to task (nil-safe). The task is threaded
// as a parameter — not read from fs.curTask — because this runs under
// the shared lock on the read path, where curTask belongs to whatever
// exclusive section ran last. Caller holds fs.mu (read or write); two
// concurrent readers may both load the same inode, in which case the
// later store wins — both copies are identical, freshly parsed from
// the same block.
func (fs *FS) inodeTask(task *trace.Task, ino Ino) (*Inode, error) {
	if in, ok := fs.cachedInode(ino); ok {
		return in, nil
	}
	pba, ok := fs.imap[ino]
	if !ok {
		return nil, fmt.Errorf("%w: ino %d", ErrNotFound, ino)
	}
	data, err := fs.readPBATaskLocked(task, pba)
	if err != nil {
		return nil, fmt.Errorf("lfs: reading inode %d at %d: %w", ino, pba, err)
	}
	in, err := UnmarshalInode(data)
	if err != nil {
		return nil, err
	}
	fs.cacheInode(in)
	return in, nil
}

// readPBATaskLocked reads one block, serving it from an unflushed
// group-commit buffer when the block has been appended but not yet
// committed to the medium, with a device read charged to task
// (nil-safe; explicitly threaded — see inodeTask for why not
// fs.curTask). Caller holds fs.mu (read or write); the buffers only
// change under the exclusive lock, so shared holders may copy from
// them safely.
func (fs *FS) readPBATaskLocked(task *trace.Task, pba uint64) ([]byte, error) {
	if s := fs.sm.segOf(pba); s != nil && len(s.pending) > 0 {
		lo := s.next - len(s.pending)
		if off := int(pba - s.start); off >= lo && off < s.next {
			buf := make([]byte, device.DataBytes)
			copy(buf, s.pending[off-lo])
			return buf, nil
		}
	}
	return fs.dev.MRSTraced(task, pba)
}

// Write stores data at the given byte offset. Data is buffered until
// Sync. Writes to heated files fail.
func (fs *FS) Write(ino Ino, off uint64, data []byte) error {
	return fs.WriteTraced(nil, ino, off, data)
}

// WriteTraced is Write with per-operation attribution (lock-wait plus
// any read-modify-write device reads); nil task behaves exactly like
// Write.
func (fs *FS) WriteTraced(task *trace.Task, ino Ino, off uint64, data []byte) error {
	fs.lockTask(task)
	defer fs.unlockTask()
	in, err := fs.inodeTask(fs.curTask, ino)
	if err != nil {
		return err
	}
	if in.Heated() {
		return fmt.Errorf("%w: ino %d", ErrFileHeated, ino)
	}
	end := off + uint64(len(data))
	if end > MaxFileBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, end)
	}
	// Writing no bytes changes nothing, wherever it points.
	if len(data) == 0 {
		return nil
	}
	// Only a write's first and last blocks can be partial. Their old
	// contents are read before anything is buffered, so a refused read
	// leaves no dirty buffer, pending size or stats change behind.
	first := int(off / device.DataBytes)
	last := int((end - 1) / device.DataBytes)
	firstOld, err := fs.rmwBase(ino, in, first, off, end)
	if err != nil {
		return err
	}
	var lastOld []byte
	if last != first {
		if lastOld, err = fs.rmwBase(ino, in, last, off, end); err != nil {
			return err
		}
	}
	if fs.dirty[ino] == nil {
		fs.dirty[ino] = make(map[int][]byte)
	}
	fs.stats.BytesWritten += uint64(len(data))
	for len(data) > 0 {
		blk := int(off / device.DataBytes)
		inner := int(off % device.DataBytes)
		n := device.DataBytes - inner
		if n > len(data) {
			n = len(data)
		}
		buf := fs.dirty[ino][blk]
		if buf == nil {
			buf = make([]byte, device.DataBytes)
			switch blk {
			case first:
				copy(buf, firstOld)
			case last:
				copy(buf, lastOld)
			}
			fs.dirty[ino][blk] = buf
		}
		copy(buf[inner:], data[:n])
		data = data[n:]
		off += uint64(n)
	}
	if end > fs.effectiveSize(ino, in) {
		fs.pendSize[ino] = end
	}
	in.MTime = fs.now()
	return nil
}

// rmwBase returns the old contents a partial overwrite of file block
// blk starts from: nil when [off, end) covers the whole block, when the
// block is already dirty, or when it is a hole or lies past the file's
// blocks. The old copy may still sit in a group-commit buffer. PBA 0 is
// the hole sentinel — block 0 is always the checkpoint, so no file
// block ever lives there. Caller holds fs.mu exclusively.
func (fs *FS) rmwBase(ino Ino, in *Inode, blk int, off, end uint64) ([]byte, error) {
	lo := uint64(blk) * device.DataBytes
	if off <= lo && end >= lo+device.DataBytes {
		return nil, nil
	}
	if fs.dirty[ino][blk] != nil || blk >= len(in.Blocks) || in.Blocks[blk] == 0 {
		return nil, nil
	}
	old, err := fs.readPBATaskLocked(fs.curTask, in.Blocks[blk])
	if err != nil {
		return nil, fmt.Errorf("lfs: read-modify-write of ino %d block %d: %w", ino, blk, err)
	}
	return old, nil
}

// effectiveSize is the file size readers observe: the durable inode
// size extended by any unflushed write. Caller holds fs.mu.
func (fs *FS) effectiveSize(ino Ino, in *Inode) uint64 {
	if ps, ok := fs.pendSize[ino]; ok && ps > in.Size {
		return ps
	}
	return in.Size
}

// WriteFile is a convenience wrapper writing the whole file content at
// offset zero.
func (fs *FS) WriteFile(ino Ino, data []byte) error {
	return fs.Write(ino, 0, data)
}

// Read returns up to len(p) bytes from the file at offset off,
// consulting the dirty buffer first. Reads take the metadata lock
// shared, so they proceed concurrently with each other and with the
// memory-buffered append path.
func (fs *FS) Read(ino Ino, off uint64, p []byte) (int, error) {
	return fs.ReadTraced(nil, ino, off, p)
}

// ReadTraced is Read with per-operation attribution: time spent
// acquiring the shared lock is charged as lock-wait and device reads
// as device time. The task is threaded explicitly through the read
// path (never via fs.curTask, which belongs to exclusive sections);
// nil behaves exactly like Read.
func (fs *FS) ReadTraced(task *trace.Task, ino Ino, off uint64, p []byte) (int, error) {
	if task != nil {
		t0 := fs.now()
		fs.mu.RLock()
		task.AddLockWait(fs.now() - t0)
	} else {
		fs.mu.RLock()
	}
	defer fs.mu.RUnlock()
	in, err := fs.inodeTask(task, ino)
	if err != nil {
		return 0, err
	}
	size := fs.effectiveSize(ino, in)
	if off >= size {
		return 0, nil
	}
	if max := size - off; uint64(len(p)) > max {
		p = p[:max]
	}
	read := 0
	for read < len(p) {
		blk := int((off + uint64(read)) / device.DataBytes)
		inner := int((off + uint64(read)) % device.DataBytes)
		n := device.DataBytes - inner
		if n > len(p)-read {
			n = len(p) - read
		}
		var src []byte
		if buf, ok := fs.dirty[ino][blk]; ok {
			src = buf
		} else if blk < len(in.Blocks) && in.Blocks[blk] != 0 {
			data, rerr := fs.readPBATaskLocked(task, in.Blocks[blk])
			if rerr != nil {
				return read, fmt.Errorf("lfs: reading block %d of ino %d: %w", blk, ino, rerr)
			}
			src = data
		} else {
			src = make([]byte, device.DataBytes) // hole (PBA 0 sentinel)
		}
		copy(p[read:read+n], src[inner:inner+n])
		read += n
	}
	return read, nil
}

// ReadFile returns the whole file content.
func (fs *FS) ReadFile(ino Ino) ([]byte, error) {
	st, err := fs.Stat(ino)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := fs.Read(ino, 0, buf)
	return buf[:n], err
}

// Delete removes a file. Heated files cannot be deleted (§5.2: "This
// implies writing the inode, which will be tamper-evident"); their
// space is permanently read-only anyway.
func (fs *FS) Delete(name string) error {
	return fs.DeleteTraced(nil, name)
}

// DeleteTraced is Delete with per-operation attribution; nil task
// behaves exactly like Delete.
func (fs *FS) DeleteTraced(task *trace.Task, name string) error {
	fs.lockTask(task)
	defer fs.unlockTask()
	ino, ok := fs.dir[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	in, err := fs.inodeTask(fs.curTask, ino)
	if err != nil {
		return err
	}
	if in.Heated() {
		return fmt.Errorf("%w: %s", ErrFileHeated, name)
	}
	for _, pba := range in.Blocks {
		fs.sm.markDead(pba)
	}
	if pba, ok := fs.imap[ino]; ok {
		fs.sm.markDead(pba)
	}
	delete(fs.imap, ino)
	fs.dropInode(ino)
	delete(fs.dirty, ino)
	delete(fs.pendSize, ino)
	delete(fs.dir, name)
	delete(fs.names, ino)
	delete(fs.fresh, ino)
	fs.jDirOps = append(fs.jDirOps, dirOp{op: dirOpRemove, ino: ino, name: name})
	fs.jImap[ino] = true
	return nil
}

// sealSegment group-commits a filled segment's buffered tail and
// retires it out of the active state. A segment that acquired heated
// lines while active (heat-oblivious placement) retires as pinned,
// never as cleanable-full.
func (fs *FS) sealSegment(seg *segment) error {
	if err := fs.flushSegment(seg); err != nil {
		return err
	}
	if seg.heatedBlocks > 0 {
		seg.state = SegPinned
	} else {
		seg.state = SegFull
	}
	return nil
}

// flushSegment group-commits the segment's pending run — the buffered
// blocks at [next-len(pending), next) — as one batched multi-block
// device write: the covering stripe locks are taken once and the
// servo settles once, instead of once per block.
func (fs *FS) flushSegment(seg *segment) error {
	if seg == nil || len(seg.pending) == 0 {
		return nil
	}
	start := seg.start + uint64(seg.next-len(seg.pending))
	if err := fs.dev.WriteBlocksTraced(fs.curTask, start, seg.pending); err != nil {
		return fmt.Errorf("lfs: group commit of segment %d: %w", seg.id, err)
	}
	fs.stats.GroupCommits++
	seg.pending = nil
	return nil
}

// flushAffinitiesLocked group-commits active appender buffers in
// affinity order for determinism, optionally skipping affinity 0.
// With Concurrency > 1 and two or more non-empty buffers, the
// per-class runs are committed concurrently on worker planes
// (device.WriteRunsFannedTraced, one batched command per class): every
// class's destination run was preassigned at buffering time from its
// own private frontier, so the on-medium layout is identical for any
// worker count and only the virtual time changes — the fanned flush
// costs its slowest class, not the sum (ARCHITECTURE.md contract 2).
func (fs *FS) flushAffinitiesLocked(skipZero bool) error {
	affs := make([]int, 0, len(fs.active))
	for a := range fs.active {
		if skipZero && a == 0 {
			continue
		}
		if seg := fs.active[a]; seg != nil && len(seg.pending) > 0 {
			affs = append(affs, int(a))
		}
	}
	slices.Sort(affs)
	if len(affs) < 2 || fs.p.Concurrency <= 1 {
		for _, a := range affs {
			if err := fs.flushSegment(fs.active[uint8(a)]); err != nil {
				return err
			}
		}
		return nil
	}
	segs := make([]*segment, len(affs))
	runs := make([]device.WriteRun, len(affs))
	for i, a := range affs {
		seg := fs.active[uint8(a)]
		segs[i] = seg
		runs[i] = device.WriteRun{
			Start:  seg.start + uint64(seg.next-len(seg.pending)),
			Blocks: seg.pending,
		}
	}
	errs := fs.dev.WriteRunsFannedTraced(fs.curTask, runs, fs.p.Concurrency)
	var firstErr error
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("lfs: group commit of segment %d: %w", segs[i].id, err)
			}
			continue
		}
		fs.stats.GroupCommits++
		segs[i].pending = nil
	}
	return firstErr
}

// flushActiveLocked group-commits every active appender's buffer.
func (fs *FS) flushActiveLocked() error { return fs.flushAffinitiesLocked(false) }

// flushOtherAffinitiesLocked group-commits every buffer except the
// affinity-0 appender's, which the serial summary-tail sync flushes
// inside the record's own command (the fanned sync flushes it on a
// worker plane instead — see syncJournalLocked).
func (fs *FS) flushOtherAffinitiesLocked() error { return fs.flushAffinitiesLocked(true) }

// dirtyAffinitiesLocked counts affinity classes with buffered,
// uncommitted appends.
func (fs *FS) dirtyAffinitiesLocked() int {
	n := 0
	for _, seg := range fs.active {
		if seg != nil && len(seg.pending) > 0 {
			n++
		}
	}
	return n
}

// activeLocked is the one way the log hands out space: it returns the
// affinity's active segment once that segment has room free blocks
// past its frontier. Otherwise it seals the segment, runs the low-space
// cleaning policy when clean is set, and opens a free segment as the
// class's new appender; ErrFull means none was free. A heat-oblivious
// FS collapses every class onto the affinity-0 appender. When no
// segment is free, the sealed segment stays the class's appender.
// Caller holds fs.mu exclusively.
func (fs *FS) activeLocked(affinity uint8, room int, clean bool) (*segment, error) {
	if !fs.p.HeatAware {
		affinity = 0
	}
	seg := fs.active[affinity]
	if seg != nil && seg.next+room <= fs.p.SegmentBlocks {
		return seg, nil
	}
	if seg != nil {
		if err := fs.sealSegment(seg); err != nil {
			return nil, err
		}
	}
	if clean {
		fs.lowSpaceCleanLocked()
		// The clean's own appends may have rotated this class already,
		// leaving blocks buffered in the new appender: keep it (or seal
		// it when full) rather than open another segment over it.
		if cur := fs.active[affinity]; cur != seg {
			return fs.activeLocked(affinity, room, false)
		}
	}
	if seg = fs.sm.allocSegment(affinity); seg == nil {
		return nil, ErrFull
	}
	fs.active[affinity] = seg
	return seg, nil
}

// appendBlock appends data to the log in the affinity's active
// segment and returns its PBA, cleaning first when free space is low.
// The block is buffered in memory and group-committed with its
// neighbours once WritebackBlocks are pending (or on seal/Sync) — the
// write path issues batched multi-block device commands, not
// block-at-a-time writes. A heat-oblivious FS has no notion of heat
// affinity, so the baseline configuration collapses every class onto
// one appender — that is the "clustering off" half of the §4.1
// ablation.
func (fs *FS) appendBlock(data []byte, affinity uint8) (uint64, error) {
	seg, err := fs.activeLocked(affinity, 1, true)
	if err != nil {
		return 0, err
	}
	pba := seg.start + uint64(seg.next)
	seg.next++
	seg.pending = append(seg.pending, data)
	seg.modTime = fs.now()
	fs.stats.BlocksAppended++
	fs.appended++
	if fs.p.AuditEvery > 0 {
		fs.sinceAudit++
		if fs.sinceAudit >= uint64(fs.p.AuditEvery) {
			fs.sinceAudit = 0
			fs.kickAuditorLocked()
		}
	}
	if len(seg.pending) >= fs.p.WritebackBlocks {
		if err := fs.flushSegment(seg); err != nil {
			return 0, err
		}
	}
	return pba, nil
}

// Sync flushes all dirty data and inodes to the log, group-commits
// the active segments, and acks durability the cheap way: it appends
// one summary record to the roll-forward journal — one batched write
// command — instead of rewriting the checkpoint region. A full
// checkpoint is written only when the CheckpointEvery policy says one
// is due, when no journal space is available, or when the delta is
// too large for a single record.
func (fs *FS) Sync() error {
	return fs.SyncTraced(nil)
}

// SyncTraced is Sync with per-operation attribution; nil task behaves
// exactly like Sync.
func (fs *FS) SyncTraced(task *trace.Task) error {
	fs.lockTask(task)
	defer fs.unlockTask()
	return fs.syncLocked()
}

// Checkpoint forces a full checkpoint: it flushes everything a Sync
// would and rewrites the checkpoint region, resetting the journal
// chain so the replayable tail is empty. Use it to bound mount-time
// replay when the workload syncs far more often than the background
// policy checkpoints.
func (fs *FS) Checkpoint() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureSyncSpaceLocked(); err != nil {
		return err
	}
	if err := fs.flushDirtyLocked(); err != nil {
		return err
	}
	return fs.syncMetaLocked()
}

// unwedgeFreeingLocked releases cleaner-gated segments when the FS is
// at rest. Cleaning triggered from the append path gates its freed
// segments (SegFreeing) without checkpointing — checkpointing
// mid-flush would persist stale inode graphs. At rest no flush is in
// flight, the metadata graph references only live blocks, and live
// blocks are never in emptied victims, so a checkpoint here safely
// stops referencing the gated segments and converts them.
func (fs *FS) unwedgeFreeingLocked() error {
	if fs.sm.freeingSegments() == 0 {
		return nil
	}
	return fs.syncMetaLocked()
}

// ensureSyncSpaceLocked secures enough SegFree segments to flush
// everything currently buffered. Cleaning that triggers mid-flush can
// only produce gated (SegFreeing) segments — converting them needs a
// checkpoint, which is only safe at rest — so a whole sync's worth of
// usable space must be carved out up front: clean, checkpoint,
// convert, repeat until the estimate fits or cleaning stops making
// net progress. Without this, a write-heavy workload near capacity
// wedges into ErrFull with reclaimable space sitting idle.
func (fs *FS) ensureSyncSpaceLocked() error {
	need := fs.syncSpaceNeedLocked()
	// A background pass mid-copy owns the cleaner, so cleaning inline
	// here would no-op; rather than wedge into ErrFull with segments
	// seconds from reclaimable, wait for the pass to commit. The wait
	// releases fs.mu (condition variable), letting the commit in; the
	// need is recomputed because writes may land while we sleep.
	for fs.cleaning && fs.sm.freeSegments() < need {
		fs.waitCleanIdleLocked(need)
		need = fs.syncSpaceNeedLocked()
	}
	for tries := 0; fs.sm.freeSegments() < need && tries < len(fs.sm.segs); tries++ {
		before := fs.sm.freeSegments()
		fs.cleanLocked(need)
		if err := fs.syncMetaLocked(); err != nil {
			return err
		}
		if fs.sm.freeSegments() <= before {
			break // no net gain; the flush will surface ErrFull if short
		}
	}
	return nil
}

// syncSpaceNeedLocked estimates the free segments a full flush of the
// current dirty state needs, reserve included.
func (fs *FS) syncSpaceNeedLocked() int {
	blocks := len(fs.fresh) // a first inode for each never-written file
	for _, m := range fs.dirty {
		blocks += len(m) + 1 // data blocks plus the inode rewrite
	}
	return blocks/fs.p.SegmentBlocks + 1 + fs.p.ReserveSegments
}

func (fs *FS) syncLocked() error {
	fs.stats.Syncs++
	tr := fs.dev.Tracer()
	t0 := fs.now()
	if err := fs.ensureSyncSpaceLocked(); err != nil {
		return err
	}
	fs.emitSpan(tr, "sync-space", t0, int64(fs.sm.freeSegments()), 0)
	t1 := fs.now()
	if err := fs.flushDirtyLocked(); err != nil {
		return err
	}
	fs.emitSpan(tr, "sync-flush", t1, 0, 0)
	t2 := fs.now()
	if fs.checkpointDueLocked() {
		err := fs.syncMetaLocked()
		fs.emitSpan(tr, "sync-meta", t2, 0, 0)
		return err
	}
	err := fs.syncJournalLocked()
	if errors.Is(err, errJournalFull) {
		// The delta cannot be journaled (no space, or too large for
		// one record); a checkpoint captures the same state directly.
		fs.stats.CheckpointFallbacks++
		err = fs.syncMetaLocked()
		fs.emitSpan(tr, "sync-meta", t2, 0, 1)
		return err
	}
	fs.emitSpan(tr, "sync-journal", t2, 0, 0)
	return err
}

// flushDirtyLocked flushes every dirty inode to the log in
// deterministic order, so experiments stay reproducible.
func (fs *FS) flushDirtyLocked() error {
	inos := make([]Ino, 0, len(fs.dirty))
	for ino := range fs.dirty {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		if err := fs.flushInode(ino); err != nil {
			return err
		}
	}
	// A Go map never shrinks, and ranging over it costs its peak size:
	// start over with an empty one, so one bulk write (a population
	// phase) does not make every later Sync pay for it.
	fs.dirty = make(map[Ino]map[int][]byte)
	return nil
}

// checkpointDueLocked decides whether this Sync must write a full
// checkpoint: always before the first one exists (there is nothing to
// roll forward from), whenever the journal is unavailable, and once
// the CheckpointEvery appended-blocks budget is spent.
func (fs *FS) checkpointDueLocked() bool {
	return fs.ckptEpoch == 0 || fs.jpromise == 0 || fs.appended >= uint64(fs.p.CheckpointEvery)
}

// writeFreshInodesLocked writes inodes, in ino order, for files that
// have none on the log yet (fs.fresh); without one, durable metadata
// would record their directory entry but no imap entry, leaving them
// half-existent after a mount.
func (fs *FS) writeFreshInodesLocked() error {
	if len(fs.fresh) == 0 {
		return nil
	}
	for _, ino := range slices.Sorted(maps.Keys(fs.fresh)) {
		in, err := fs.inodeTask(fs.curTask, ino)
		if err != nil {
			return err
		}
		if err := fs.writeInode(in); err != nil {
			return err
		}
	}
	return nil
}

// syncMetaLocked makes the current metadata graph durable the
// heavyweight way: it writes inodes for files that have none on the
// log yet, group-commits every active buffer, writes a full
// checkpoint, and — once the checkpoint is on the medium — releases
// the cleaner's SegFreeing segments for reuse. Callers must not be
// mid-flush: every imap entry has to point at a complete inode image
// (buffered or written). For the summary-record counterpart, see
// syncJournalLocked.
func (fs *FS) syncMetaLocked() error {
	if err := fs.writeFreshInodesLocked(); err != nil {
		return err
	}
	// Everything the checkpoint is about to ack must be on the medium
	// before the checkpoint itself is.
	if err := fs.flushActiveLocked(); err != nil {
		return err
	}
	if err := fs.writeCheckpointLocked(); err != nil {
		return err
	}
	fs.sm.convertFreeing()
	return nil
}

func (fs *FS) flushInode(ino Ino) error {
	in, err := fs.inodeTask(fs.curTask, ino)
	if err != nil {
		return err
	}
	blocks := fs.dirty[ino]
	idxs := make([]int, 0, len(blocks))
	for i := range blocks {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		pba, aerr := fs.appendBlock(blocks[idx], in.Affinity)
		if aerr != nil {
			return aerr
		}
		for len(in.Blocks) <= idx {
			in.Blocks = append(in.Blocks, 0)
		}
		if old := in.Blocks[idx]; old != 0 {
			fs.sm.markDead(old)
		}
		in.Blocks[idx] = pba
		fs.sm.setOwner(pba, blockRef{ino: ino, idx: idx}, fs.now())
		fs.jBlocks = append(fs.jBlocks, blockPtr{ino: ino, idx: int32(idx), pba: pba})
	}
	// The promised size is now backed by blocks on the log.
	if ps, ok := fs.pendSize[ino]; ok {
		if ps > in.Size {
			in.Size = ps
		}
		delete(fs.pendSize, ino)
	}
	delete(fs.dirty, ino)
	return fs.writeInode(in)
}

// writeInode appends the inode block to the log and updates the imap.
func (fs *FS) writeInode(in *Inode) error {
	buf, err := in.Marshal()
	if err != nil {
		return err
	}
	pba, err := fs.appendBlock(buf, in.Affinity)
	if err != nil {
		return err
	}
	if old, ok := fs.imap[in.Ino]; ok {
		fs.sm.markDead(old)
	} else {
		fs.inoOrder.add(in.Ino)
		delete(fs.fresh, in.Ino)
	}
	fs.imap[in.Ino] = pba
	fs.sm.setOwner(pba, blockRef{ino: in.Ino, idx: -1}, fs.now())
	fs.jImap[in.Ino] = true
	return nil
}

// Segments exports the segment table for experiments.
func (fs *FS) Segments() []SegmentInfo {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.sm.snapshot()
}

// FreeSegments reports the number of reusable segments.
func (fs *FS) FreeSegments() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.sm.freeSegments()
}
