// Package sero is the public API of the SERO (Selectively Eventually
// Read-Only) storage library, a reproduction of "Towards
// Tamper-evident Storage on Patterned Media" (Hartel, Abelmann,
// Khatib; FAST 2008).
//
// A SERO device behaves like an ordinary random-access block device —
// until selected 2^N-block lines are "heated": a physically
// irreversible write-once operation that stores a SHA-256 hash of the
// line in Manchester-coded heated dots. From then on any modification
// of the line is detectable, while its data blocks remain cheaply
// readable. Over its life the device migrates from fully rewritable to
// fully read-only.
//
// The simulated device reproduces the paper's physics (dot-level
// magnetic and electrical operations, analog read signals, annealing
// behaviour) and its latency contract (electrical reads ≥5× magnetic
// reads). Open a device, write lines, heat them, verify them:
//
//	dev := sero.Open(sero.Options{Blocks: 4096})
//	start, logN, _ := dev.WriteLine(blocks)
//	dev.Heat(start, logN)
//	report, _ := dev.Verify(start)
//	if report.Tampered() { ... }
//
// # Concurrency
//
// A Device is safe for concurrent use by any number of goroutines, and
// the implementation is sharded rather than serialised: block and line
// operations take striped per-line-region locks, so reads, writes,
// heats and verifies aimed at distinct lines proceed in parallel,
// while any two operations touching the same blocks (including the
// thermal-crosstalk neighbourhood of an electrical write) are
// serialised against each other. Whole-medium operations — Recover's
// scan and SaveImage — briefly exclude everything else.
//
// Audit and Recover fan out over a worker pool whose width is
// Options.Concurrency (default 1 = serial). Work is partitioned
// statically (round-robin), so reports are assembled in line order
// and, on a noiseless medium (Quiet), are bit-identical for any
// worker count. With read noise enabled, workers interleave draws
// from the medium's one seeded noise stream, so individual noise
// samples land on different dot reads run to run — exactly as they
// already do between two serial runs that touch the medium in
// different orders; at a healthy SNR the decoded results are
// unaffected.
//
// # The batched write path
//
// Writes are command-batched. Committing magnetisation (or a heat
// pulse) needs the sled settled over the target dots, so every write
// command charges one servo settle before its first bit; reads track
// on the fly and pay none. A contiguous multi-block run issued as one
// command (Device.WriteBlocks, the line-granular WriteLineBatch, or a
// file-system group commit) therefore settles once and streams,
// where the same run written sector-at-a-time settles once per
// sector. The file system exposes this as FSOptions.WritebackBlocks:
// appends buffer in the active segment in memory and go to the device
// as one batched write per WritebackBlocks (and on segment seal and
// Sync); reads take the FS metadata lock shared and proceed
// concurrently with the memory-buffered append path.
//
// The write path is also fanned: a heat-aware FS keeps one appender —
// its own frontier and group-commit buffer — per heat-affinity class,
// and a Sync flushes the per-class runs concurrently on
// FSOptions.Concurrency worker planes (one batched command per
// class, slowest-worker virtual time), so hot and cold appends stop
// serialising through a single frontier. Every class's destination
// run was fixed when its blocks were buffered, so the on-medium
// layout is identical for any worker count; only the virtual time
// changes. The journal's summary record still commits last, at the
// affinity-0 frontier, after every other class's data it acks is on
// the medium — see the durability section below.
//
// # Durability: the summary-tail Sync and the roll-forward journal
//
// Data is durable — acked — at Sync, and the ack is two-tier. A Sync
// group-commits every buffer and then appends one checksummed summary
// record (imap deltas, ordered directory ops, per-block back-pointers)
// to a journal chain living in dedicated log segments: one batched
// write command whose cost scales with the delta, not with the
// metadata size. The checkpoint region — two alternating, checksummed
// slots, so a torn checkpoint write can never lose the previous one —
// is rewritten only when FSOptions.CheckpointEvery appended blocks
// have passed, on an explicit FS.Checkpoint, or when a delta cannot be
// journaled. Mounting loads the newest valid checkpoint slot and rolls
// the summary chain forward, stopping cleanly at the first torn or
// invalid record: every acked Sync survives any later crash point, and
// no unacked write resurrects. A mount that finds both checkpoint
// slots damaged refuses with an error instead of presenting an empty
// file system. CheckFSJournal verifies the chain (sequence continuity,
// checksums, back-pointer agreement with the imap) the way
// cmd/serofsck reports it.
//
// Mount cost is bounded by a per-segment liveness table each
// checkpoint slot carries (under its own checksum, so table damage
// degrades the mount, never the checkpoint): the table names every
// live block and its owning inode as of the checkpoint, and the
// summary-chain deltas keep it current across the journal tail, so a
// mount rebuilds the segments' owner tables in O(segments +
// replayed tail) — independent of how many files exist — re-reading
// only the inodes the tail touched. When the table is absent, torn or
// fails its cross-check, the mount falls back to the full inode walk,
// fanned out over FSOptions.Concurrency worker planes (ino-sorted
// static split, slowest-worker virtual time) with every segment age
// stamped from one post-read timestamp, so the recovered state — and
// the cleaner's future victim choices — is byte-identical for either
// rebuild path and any worker count. FS.MountReport says which path a
// mount took; BenchmarkMountReplay{Wide,Deep} measure the contrast.
//
// # Cleaning: incremental, backgroundable, off the foreground lock
//
// The LFS cleaner fans out over FSOptions.Concurrency like Audit
// does: a pass picks its cost-benefit victims, plans every live
// block's destination serially (so the post-clean layout is a
// function of the workload alone, identical for any worker count),
// copies victim segments concurrently on private worker planes, and
// commits metadata serially, rewriting each affected inode once.
// A pass is phased against the FS lock: plan and commit hold it
// briefly, while the copy phase — the expensive part — runs with the
// lock released, victims guarded by a per-segment clean-pin. A
// foreground write that invalidates a block mid-copy wins: the commit
// phase re-validates every move and drops just the stale ones. With
// FSOptions.CleanWatermark set, passes run from a background
// goroutine whenever the free pool dips to the watermark, so
// foreground appends stop paying for whole cleaning passes (see
// BenchmarkAppendDuringClean* in internal/lfs); FS.Close stops it.
// Latency-critical embedders that want neither inline passes nor a
// background goroutine can instead drive rounds themselves with
// FS.CleanStep — one plan/copy/commit round per call, stopping the
// moment foreground work arrives.
// Segments the cleaner empties stay gated (SegFreeing) until a
// covering point (a Sync's summary record or a checkpoint) that no
// longer references their old contents is on the medium — only then
// may fresh appends reuse them, so a crash-mount never reads recycled
// blocks, even for a crash in the middle of a background pass.
//
// # Continuous verification
//
// With FSOptions.AuditEvery set, verification becomes a background
// service like cleaning: every AuditEvery appended blocks, an
// incremental auditor verifies a small batch of heated lines — each
// under only its own striped region locks — in rounds that sweep the
// whole heated population, so a tamper of any heated line is detected
// within two rounds. Blocks that the cleaner (or any reader) pulls
// off the medium pull their lines to the front of the current round
// (a read-observer piggyback), making recently touched regions the
// first re-verified. The checks run off the foreground clock:
// audit-on and audit-off runs are byte-identical in virtual time, and
// the would-be cost appears as Metrics' AuditDeviceNS shadow counter
// instead. FS.AuditStep drives the same rounds cooperatively, and
// serofsck -online audits a mounted, live file system.
//
// Virtual time under parallelism is defined as follows. Foreground
// operations charge the shared device clock, which accumulates the
// total device work (the serialised equivalent) no matter how many
// goroutines issue them. A fanned-out Audit/Recover — and the
// cleaner's fanned-out copy phase — instead runs each worker against
// a private clock and advances the device clock by the *maximum*
// per-worker elapsed time — the model of parallel hardware, where the
// pass takes as long as its slowest worker. With Concurrency=1 the
// two definitions coincide: the pass costs the sum of its per-line
// work. (Audit seeks are accounted on a dedicated verification plane
// that starts from the sled home position each pass, rather than
// continuing from wherever foreground I/O left the shared sled.)
// ElapsedVirtual is therefore coherent — monotone, and the serial sum
// of charged work when serial — under any workload.
//
// For a file-system view (log-structured, heat-aware cleaning), see
// NewFS. For the experiment drivers that regenerate the paper's
// figures, see cmd/serosim.
package sero

import (
	"time"

	"sero/internal/array"
	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/trace"
)

// Options configures a simulated SERO device.
type Options struct {
	// Blocks is the number of 512-byte blocks. Required.
	Blocks int
	// Quiet disables read noise, residual signals and thermal
	// crosstalk, making every run bit-deterministic. Default is the
	// realistic noisy medium.
	Quiet bool
	// Seed seeds the medium's noise generator (ignored when Quiet).
	Seed uint64
	// ErbRetries tunes the electrical-read retry count (default 8).
	ErbRetries int
	// Concurrency is the worker count Audit and Recover fan out
	// over. 0 or 1 means serial, keeping the paper's
	// single-sled virtual-time model (a pass costs the sum of its
	// per-line work); higher values model
	// parallel verification hardware (virtual time per pass becomes
	// the slowest worker's share) and use that many goroutines of host
	// parallelism. Reports are assembled in line order for any value,
	// and are bit-identical across worker counts on a Quiet medium
	// (see the package comment for the read-noise caveat).
	Concurrency int
}

// BlockSize is the data payload of one block, in bytes.
const BlockSize = device.DataBytes

// Device is a simulated tamper-evident SERO store.
type Device struct {
	st *core.Store
	// tracer and sinks hold the active StartTrace state (nil/empty when
	// tracing is off).
	tracer *trace.Tracer
	sinks  []TraceSink
}

// VerifyReport re-exports the device verification outcome.
type VerifyReport = device.VerifyReport

// LineInfo re-exports heated-line metadata.
type LineInfo = device.LineInfo

// AuditReport re-exports the whole-store audit outcome.
type AuditReport = core.AuditReport

// LifecycleStats re-exports the WMRM→RO ageing statistics.
type LifecycleStats = core.LifecycleStats

// Open creates a simulated SERO device.
func Open(o Options) *Device {
	if o.Blocks <= 0 {
		panic("sero: Options.Blocks must be positive")
	}
	return &Device{st: core.NewStore(device.New(o.deviceParams()))}
}

// deviceParams maps the options onto one sled's device parameters.
func (o Options) deviceParams() device.Params {
	p := device.DefaultParams(o.Blocks)
	if o.ErbRetries > 0 {
		p.ErbRetries = o.ErbRetries
	}
	// Clamp at the API boundary, exactly like SetConcurrency: a
	// negative or zero width means serial, never a copied-through
	// nonsense value.
	p.Concurrency = max(o.Concurrency, 1)
	mp := medium.DefaultParams(o.Blocks, device.DotsPerBlock)
	if o.Seed != 0 {
		mp.Seed = o.Seed
	}
	if o.Quiet {
		mp = mp.Quiet()
	}
	p.Medium = mp
	return p
}

// ArrayOptions configures a striped multi-device array behind the
// same Device facade: one logical block space over Devices simulated
// sleds with rotated Reed–Solomon parity (internal/array). Blocks is
// the capacity of EACH member; the logical capacity is
// Blocks/StripeBlocks × (Devices−ParityDevices) × StripeBlocks.
type ArrayOptions struct {
	// Options carries the per-member device knobs. Blocks (required)
	// is the per-member capacity and must be a multiple of
	// StripeBlocks.
	Options
	// Devices is the member count N (≥ 1). A width-1 array is
	// byte-identical — layout and virtual time — to Open with the same
	// Options.
	Devices int
	// ParityDevices is the Reed–Solomon parity member count P < N;
	// the array survives up to P member losses.
	ParityDevices int
	// StripeBlocks is the stripe unit (0 = 256, the serving-tier
	// segment size; set it equal to the FS SegmentBlocks so one
	// segment maps to one member).
	StripeBlocks int
}

// OpenArray creates a striped array of simulated SERO devices behind
// the ordinary Device facade: every facade call — and any FS built on
// top with NewFS/MountFS — runs against the composite. Use
// Device.Array for the array-specific surface (member failure,
// degraded stats, repair).
func OpenArray(o ArrayOptions) *Device {
	if o.Devices < 1 {
		panic("sero: ArrayOptions.Devices must be at least 1")
	}
	if o.Blocks <= 0 {
		panic("sero: ArrayOptions.Blocks must be positive")
	}
	if o.StripeBlocks <= 0 {
		o.StripeBlocks = 256
	}
	arr, err := array.Build(o.Devices, o.deviceParams(), array.Params{
		StripeBlocks: o.StripeBlocks,
		Parity:       o.ParityDevices,
	})
	if err != nil {
		panic("sero: " + err.Error())
	}
	return &Device{st: core.NewStore(arr)}
}

// Array exposes the striped composite behind a Device created with
// OpenArray: member failure/repair, degraded-read statistics and
// per-member access live there. Returns nil for a single-sled Device.
func (d *Device) Array() *array.Array {
	arr, _ := d.st.Device().(*array.Array)
	return arr
}

// Blocks returns the device size in blocks.
func (d *Device) Blocks() int { return d.st.Device().Blocks() }

// Write stores 512 bytes at the given physical block address.
func (d *Device) Write(pba uint64, data []byte) error { return d.st.Write(pba, data) }

// Read fetches the 512-byte block at pba.
func (d *Device) Read(pba uint64) ([]byte, error) { return d.st.Read(pba) }

// WriteLine allocates an aligned line, writes the given blocks into it
// (zero-padding the slack) and returns its start address and size
// exponent. Heat it with Heat when it must become tamper-evident.
func (d *Device) WriteLine(blocks [][]byte) (start uint64, logN uint8, err error) {
	return d.st.WriteLine(blocks)
}

// Heat freezes the line at start: its hash is stored in write-once
// heated dots and the line becomes read-only.
func (d *Device) Heat(start uint64, logN uint8) (LineInfo, error) {
	return d.st.Heat(start, logN)
}

// Verify recomputes the hash of a heated line and compares it with the
// stored one; any discrepancy is evidence of tampering.
func (d *Device) Verify(start uint64) (VerifyReport, error) { return d.st.Verify(start) }

// Audit verifies every heated line on the device, fanning out over the
// configured Concurrency.
func (d *Device) Audit() AuditReport { return d.st.Audit() }

// AuditParallel audits with an explicit worker count (0 means the
// configured Concurrency, 1 means serial). The report is assembled in
// line order for any worker count (and is bit-identical across counts
// on a Quiet medium); only elapsed time changes.
func (d *Device) AuditParallel(workers int) AuditReport { return d.st.AuditParallel(workers) }

// Concurrency returns the audit/recover fan-out width.
func (d *Device) Concurrency() int { return d.st.Device().Concurrency() }

// SetConcurrency changes the audit/recover fan-out width at runtime
// (values below 1 are clamped to 1).
func (d *Device) SetConcurrency(workers int) { d.st.Device().SetConcurrency(workers) }

// Lines lists the heated lines.
func (d *Device) Lines() []LineInfo { return d.st.Lines() }

// Recover rebuilds the heated-line registry by scanning the medium —
// the paper's fsck-style recovery (§5.2); use after reattaching a
// device with lost host state.
func (d *Device) Recover() (core.RecoveryReport, error) { return d.st.Recover() }

// Lifecycle reports how far the device has aged toward read-only.
func (d *Device) Lifecycle() LifecycleStats { return d.st.Lifecycle() }

// ElapsedVirtual returns the simulated time consumed so far; all
// latency figures in this library are virtual, not wall-clock.
func (d *Device) ElapsedVirtual() time.Duration { return d.st.Device().Clock().Now() }

// Store exposes the underlying core store for advanced integrations
// (the archival packages take a *core.Store).
func (d *Device) Store() *core.Store { return d.st }

// TraceSpan re-exports one virtual-time span (see internal/trace for
// the span taxonomy).
type TraceSpan = trace.Span

// Tracer re-exports the bounded lock-free span buffer.
type Tracer = trace.Tracer

// TraceSink consumes the buffered spans when tracing stops. Spans
// arrive in the canonical deterministic order.
type TraceSink func(spans []TraceSpan)

// TraceOptions configures StartTrace.
type TraceOptions struct {
	// Buffer caps the number of buffered spans (0 = trace.DefaultBuffer,
	// 65536). Once full, further spans are dropped and counted — Emit
	// never blocks and never perturbs virtual time.
	Buffer int
	// Sinks are called in order with the collected spans when StopTrace
	// runs.
	Sinks []TraceSink
}

// StartTrace installs a span tracer on the device: from here on the
// device layer (and any FS built over this device) emits virtual-time
// spans into a bounded buffer. Tracing never advances the virtual
// clock — a traced run's latencies are byte-identical to an untraced
// one — and emission never blocks (a full buffer drops spans and
// counts them). Returns the tracer, which may be shared with
// TraceChromeJSON or TraceSummary; a second StartTrace replaces the
// first.
func (d *Device) StartTrace(o TraceOptions) *Tracer {
	d.tracer = trace.New(o.Buffer)
	d.sinks = o.Sinks
	d.st.Device().SetTracer(d.tracer)
	return d.tracer
}

// StopTrace uninstalls the tracer, feeds the collected spans to the
// configured sinks, and returns the spans plus how many were dropped
// to the buffer cap. Call at quiescence (no operations in flight).
// Without a prior StartTrace it returns (nil, 0).
func (d *Device) StopTrace() ([]TraceSpan, uint64) {
	if d.tracer == nil {
		return nil, 0
	}
	d.st.Device().SetTracer(nil)
	spans, dropped := d.tracer.Spans(), d.tracer.Dropped()
	for _, sink := range d.sinks {
		sink(spans)
	}
	d.tracer, d.sinks = nil, nil
	return spans, dropped
}

// TraceChromeJSON renders spans as a Chrome trace_event JSON document
// loadable in Perfetto or chrome://tracing: sessions and worker
// planes appear as named tracks on the virtual timeline. dropped is
// recorded in the document so a truncated trace is self-describing.
func TraceChromeJSON(spans []TraceSpan, dropped uint64) ([]byte, error) {
	return trace.ChromeJSON(spans, dropped)
}

// TraceSummary renders spans as a compact text profile (per-span-kind
// counts, totals, means and share bars).
func TraceSummary(spans []TraceSpan) string { return trace.Summarize(spans) }

// MetricsSnapshot is a point-in-time counters registry spanning the
// stack: file-system activity (appends, syncs, journal and checkpoint
// behaviour, cleaning) plus the tracer's drop counter. All counters
// are cumulative since format/mount.
type MetricsSnapshot struct {
	// FS is the file-system counter block (zero value when Metrics was
	// called without an FS).
	FS lfs.Stats
	// TraceDropped counts spans dropped to the trace buffer cap (0 when
	// tracing is off).
	TraceDropped uint64
}

// Metrics snapshots the counters registry. fs may be nil (device-only
// integrations); the FS block is then zero. The FS snapshot is
// internally consistent — it is copied under one lock acquisition, so
// related counters (e.g. CleanerPasses and CleanerCopied) never tear.
func Metrics(d *Device, fs *FS) MetricsSnapshot {
	var m MetricsSnapshot
	if fs != nil {
		m.FS = fs.Stats()
	}
	if d != nil && d.tracer != nil {
		m.TraceDropped = d.tracer.Dropped()
	}
	return m
}

// Shred physically destroys the data blocks of a heated line by
// heating every dot (§8 "Deletion"). The data becomes unrecoverable,
// but the destruction itself remains permanently evident: the line's
// record survives as a tombstone and Verify reports it destroyed.
// Retention policy belongs above this call — see internal/retention
// for a policy-gated wrapper.
func (d *Device) Shred(start uint64) (device.ShredReport, error) {
	return d.st.Device().ShredLine(start)
}

// SaveImage serialises the device's complete medium state. Host-side
// metadata is intentionally excluded: the medium is the evidence.
func (d *Device) SaveImage() []byte { return d.st.Device().SaveImage() }

// RawDevice exposes the underlying raw sled for adversary
// demonstrations that write the medium directly. It returns nil when
// the store sits on a composite (an array of sleds) rather than a
// single raw device; per-member raw access then goes through the
// array's MemberDevice.
func (d *Device) RawDevice() *device.Device {
	raw, _ := d.st.Device().(*device.Device)
	return raw
}

// LoadImage reattaches a device from an image produced by SaveImage.
// The heated-line registry is rebuilt by scanning the medium, so a
// tampered image cannot smuggle in forged host state.
func LoadImage(img []byte) (*Device, error) {
	dev, _, err := device.LoadImage(img, device.DefaultParams(0))
	if err != nil {
		return nil, err
	}
	st := core.NewStore(dev)
	if _, err := st.Recover(); err != nil {
		return nil, err
	}
	return &Device{st: st}, nil
}

// FS is a log-structured, heat-aware file system over a SERO device.
type FS = lfs.FS

// Ino is a file-system inode number.
type Ino = lfs.Ino

// FSOptions configures NewFS.
type FSOptions struct {
	// SegmentBlocks is the LFS segment size (power of two, default
	// 64).
	SegmentBlocks int
	// CheckpointBlocks sizes the checkpoint region at the front of the
	// device, independently of SegmentBlocks. It must be a power of
	// two; 0 defaults to one segment. (It is still rounded up to a
	// whole number of segments so the log base stays aligned.)
	CheckpointBlocks int
	// WritebackBlocks is the group-commit granularity of the write
	// path: appended blocks are buffered in memory and committed as
	// one batched multi-block device write once this many are pending
	// (and always on segment seal and Sync). 1 writes block-at-a-time,
	// paying the per-command servo settle for every block; 0 defaults
	// to whole-segment group commit.
	WritebackBlocks int
	// CheckpointEvery is the background checkpoint policy in appended
	// blocks: Sync acks with a summary record (the roll-forward
	// journal) until this many blocks have been appended since the
	// last checkpoint, then writes a full one. 1 checkpoints every
	// non-empty Sync (the pre-journal behaviour); 0 defaults to four
	// segments' worth; negative values are rejected.
	CheckpointEvery int
	// HeatAware toggles the §4.1 clustering and cleaning policies
	// (default true).
	HeatAware bool
	// Concurrency is the FS worker-plane fan-out width: cleaning
	// passes relocate victim blocks, Sync flushes the
	// per-affinity-class group-commit buffers, and Mount batches its
	// checkpoint-slot and inode reads — each on this many concurrent
	// device worker planes, costing the slowest worker's virtual
	// time. The on-medium layout is identical for any width; only the
	// virtual time changes. 0 defaults to the device's configured
	// width; negative values clamp to serial.
	Concurrency int
	// CleanWatermark moves cleaning off the foreground lock: when the
	// free pool dips to this many segments, a background goroutine
	// runs incremental plan/copy/commit passes — the expensive copy
	// phase with the FS lock released — until that many segments are
	// reclaimable again. 0 (the default) keeps cleaning foreground-
	// only (inline on the append path, or explicit FS.Clean). Call
	// FS.Close to stop the background cleaner; negative values are
	// rejected.
	CleanWatermark int
	// AuditEvery makes verification a background service the way
	// CleanWatermark does cleaning: every AuditEvery blocks appended
	// to the log, a background goroutine verifies a small batch of
	// heated lines off the foreground clock, in rounds that sweep the
	// whole heated population (detection within two rounds of a
	// tamper; see FS.AuditStep and Metrics' audit counters). 0 (the
	// default) disables the cadence — FS.AuditStep can still drive
	// rounds cooperatively. Call FS.Close to stop the background
	// auditor; negative values are rejected.
	AuditEvery int
}

// fsParams translates FSOptions into lfs parameters (shared by NewFS
// and MountFS so a mount always interprets the options the same way
// the format did).
func fsParams(d *Device, o FSOptions) lfs.Params {
	p := lfs.DefaultParams()
	if o.SegmentBlocks > 0 {
		p.SegmentBlocks = o.SegmentBlocks
		p.CheckpointBlocks = o.SegmentBlocks
	}
	if o.CheckpointBlocks != 0 {
		p.CheckpointBlocks = o.CheckpointBlocks
	}
	p.WritebackBlocks = o.WritebackBlocks
	p.CheckpointEvery = o.CheckpointEvery
	p.HeatAware = o.HeatAware
	p.Concurrency = o.Concurrency
	if p.Concurrency == 0 {
		p.Concurrency = d.Concurrency()
	}
	p.CleanWatermark = o.CleanWatermark
	p.AuditEvery = o.AuditEvery
	return p
}

// NewFS formats a file system onto a device opened with Open.
func NewFS(d *Device, o FSOptions) (*FS, error) {
	return lfs.New(d.st.Device(), fsParams(d, o))
}

// MountFS reopens a file system previously created by NewFS on the
// same device: it loads the newest valid checkpoint slot and rolls
// forward through the summary chain, recovering every acked Sync and
// stopping cleanly at the first torn record. Segment liveness comes
// from the slot's checkpointed liveness table when one is present and
// intact — mount cost O(segments + replayed tail) — and from a full
// inode walk fanned over FSOptions.Concurrency worker planes
// otherwise; FS.MountReport tells which. A device whose checkpoint
// slots are both damaged refuses to mount (lfs.ErrTornCheckpoint)
// rather than silently coming up as an empty file system.
func MountFS(d *Device, o FSOptions) (*FS, error) {
	return lfs.Mount(d.st.Device(), fsParams(d, o))
}

// FSMountStats re-exports the per-mount liveness-rebuild report (see
// FS.MountReport): whether the checkpointed liveness table was used,
// why it was not, and how many inodes the mount had to read.
type FSMountStats = lfs.MountStats

// Mount error sentinels, for errors.Is against MountFS failures.
var (
	// ErrBadCheckpoint reports that no valid checkpoint slot exists —
	// the device was never formatted and synced by NewFS.
	ErrBadCheckpoint = lfs.ErrBadCheckpoint
	// ErrTornCheckpoint reports that both checkpoint slots hold data
	// but neither validates: the medium was demonstrably formatted, so
	// MountFS refuses to present it as an empty file system. It wraps
	// ErrBadCheckpoint.
	ErrTornCheckpoint = lfs.ErrTornCheckpoint
)

// FSCleanStats re-exports the per-pass cleaning summary returned by
// FS.Clean and FS.CleanStep.
type FSCleanStats = lfs.CleanStats

// FSAuditStats re-exports the per-step incremental audit report
// returned by FS.AuditStep (lines checked, tamper findings, round
// completion and shadow device time).
type FSAuditStats = lfs.AuditStats

// ReadCheckpointPrefix reads the block range [base, base+blocks) of a
// checkpoint region fanned over the device's configured Concurrency
// and returns the concatenated payloads up to the first unreadable
// block, plus whether the whole range was readable — the primitive
// cmd/serofsck uses to probe damaged slots, shared with the mount
// path's batched slot reads.
func ReadCheckpointPrefix(d *Device, base uint64, blocks int) ([]byte, bool) {
	return lfs.ReadablePrefix(d.st.Device(), base, blocks, d.Concurrency())
}

// FSJournalReport re-exports the summary-chain verification outcome.
type FSJournalReport = lfs.JournalReport

// CheckFSJournal verifies the file system's roll-forward journal the
// way cmd/serofsck reports it: sequence continuity and chained
// checksums of the summary tail, then back-pointer agreement between
// the journaled records and the replayed imap, plus checkpoint age
// and replayable-tail length.
func CheckFSJournal(d *Device, o FSOptions) (FSJournalReport, error) {
	return lfs.CheckJournal(d.st.Device(), fsParams(d, o))
}
