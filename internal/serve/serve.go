// Package serve is the trace-driven serving tier: a multi-client
// macro-benchmark harness that replays internal/workload traces
// against ONE mounted lfs.FS from N concurrent sessions and reports
// virtual-time latency percentiles per op kind plus sustained
// throughput — the yardstick trajectory every later scaling PR is
// judged against (ROADMAP "Trace-driven serving tier").
//
// Session model: the namespace and the op budget are partitioned
// statically over N sessions. Session i owns a disjoint namespace
// shard (workload.Mix with prefix "sNN") and replays its own
// deterministically seeded stream, so the set of streams is identical
// for any interleaving — only the interleaving itself, and therefore
// the measured contention, varies with scheduling.
//
// Virtual-time accounting follows the system-wide slowest-worker
// contract (ARCHITECTURE.md): one shared device clock accumulates
// serialised foreground work no matter how many goroutines issue it.
// A session stamps the shared clock around each op, so an op's
// recorded latency is the virtual time until its effects are on the
// medium *including* the device work of ops it queued behind — which
// is exactly the tail a client of a loaded server observes. Buffered
// appends cost ~0 until the next sync; syncs and reads carry the
// device work, and the per-kind histograms make that split visible.
package serve

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/trace"
	"sero/internal/workload"
)

// Config describes one serving run completely: replaying the same
// Config (and code) reproduces the same per-session op streams, which
// is what lets a future PR re-run a recorded BENCH trajectory and diff
// it.
type Config struct {
	// Sessions is the number of concurrent client sessions.
	Sessions int `json:"sessions"`
	// Files is the total namespace width, partitioned over sessions.
	Files int `json:"files"`
	// Ops is the total mix-op budget, partitioned over sessions (the
	// population phase's creates and seed writes are on top of it and
	// are measured too).
	Ops int `json:"ops"`
	// FileBlocks caps each file's size in blocks.
	FileBlocks int `json:"file_blocks"`
	// Seed derives every session's RNG stream.
	Seed uint64 `json:"seed"`
	// ZipfTheta is the file-popularity skew (0 = uniform).
	ZipfTheta float64 `json:"zipf_theta"`
	// SyncEvery is each session's ops-per-sync cadence (workload.Mix).
	SyncEvery int `json:"sync_every"`
	// BurstEvery is the op spacing between append bursts.
	BurstEvery int `json:"burst_every"`
	// BurstLen is the appends per burst.
	BurstLen int `json:"burst_len"`

	// DeviceBlocks sizes the simulated device; 0 auto-sizes from
	// Files and Ops.
	DeviceBlocks int `json:"device_blocks"`
	// SegmentBlocks mirrors lfs.Params.SegmentBlocks (0 = serving
	// default, 256).
	SegmentBlocks int `json:"segment_blocks"`
	// CheckpointBlocks mirrors lfs.Params.CheckpointBlocks; 0
	// auto-sizes from Files so both slots hold the namespace.
	CheckpointBlocks int `json:"checkpoint_blocks"`
	// WritebackBlocks mirrors lfs.Params.WritebackBlocks (0 =
	// whole-segment group commit).
	WritebackBlocks int `json:"writeback_blocks"`
	// CheckpointEvery mirrors lfs.Params.CheckpointEvery (0 = 1<<16).
	CheckpointEvery int `json:"ckpt_every"`
	// CleanWatermark mirrors lfs.Params.CleanWatermark (0 =
	// foreground-only cleaning).
	CleanWatermark int `json:"clean_watermark"`
	// Concurrency mirrors lfs.Params.Concurrency (0 = serial).
	Concurrency int `json:"concurrency"`
	// AuditEvery mirrors lfs.Params.AuditEvery: a background audit
	// step every this many appended blocks (0 = continuous
	// verification off). Audit work is off-clock, so the virtual-time
	// trajectory is identical either way; the audit counters in the
	// Result report the shadow cost.
	AuditEvery int `json:"audit_every,omitempty"`
	// HeatFiles, when positive, freezes this many extra two-block
	// files (named outside every session's namespace shard) into
	// heated lines before the sessions start, so continuous
	// verification has a real line population to sweep during the run.
	// 0 heats nothing — the serving mix itself never heats files.
	HeatFiles int `json:"heat_files,omitempty"`
	// AffinityClasses spreads the sessions' namespaces over this many
	// heat-affinity classes (session i creates its files in class
	// i mod AffinityClasses), so a multi-session run exercises the
	// per-class appender fan-out instead of serialising every append
	// through the affinity-0 frontier. 0 or 1 keeps the single-class
	// behaviour; the op streams are identical either way (only each
	// create's affinity label changes).
	AffinityClasses int `json:"affinity_classes"`

	// Devices stripes the run over this many member devices
	// (internal/array). 0 or 1 keeps the single raw device, the
	// recorded-trajectory baseline; wider runs keep DeviceBlocks of
	// *global* capacity by sizing each member at
	// DeviceBlocks/(Devices-ParityDevices), rounded up to stripe
	// units.
	Devices int `json:"devices,omitempty"`
	// ParityDevices is the Reed–Solomon parity member count
	// (< Devices); the array serves reads with up to this many
	// members lost.
	ParityDevices int `json:"parity_devices,omitempty"`
	// DegradedDevices fails this many members (the highest-numbered
	// ones) after the population phase and before the measured
	// sessions start, so the trajectory records serving under member
	// loss. Must not exceed ParityDevices.
	DegradedDevices int `json:"degraded_devices,omitempty"`
}

// DefaultConfig returns the standard serving configuration at the
// given session count: the DefaultMix op blend over a zipfian(0.9)
// namespace, spread over four affinity classes with the write path,
// cleaner and mount fanned out over four worker planes.
func DefaultConfig(sessions, files, ops int) Config {
	m := workload.DefaultMix(1, 1)
	return Config{
		Sessions:        sessions,
		Files:           files,
		Ops:             ops,
		FileBlocks:      m.FileBlocks,
		Seed:            42,
		ZipfTheta:       m.ZipfTheta,
		SyncEvery:       m.SyncEvery,
		BurstEvery:      m.BurstEvery,
		BurstLen:        m.BurstLen,
		SegmentBlocks:   256,
		CheckpointEvery: 1 << 16,
		Concurrency:     4,
		AffinityClasses: 4,
	}
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// withDefaults fills the zero knobs and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.Sessions <= 0 || c.Files <= 0 || c.Ops < 0 {
		return c, fmt.Errorf("serve: bad config: sessions=%d files=%d ops=%d", c.Sessions, c.Files, c.Ops)
	}
	if c.Sessions > c.Files {
		return c, fmt.Errorf("serve: %d sessions cannot shard %d files", c.Sessions, c.Files)
	}
	if c.FileBlocks <= 0 {
		c.FileBlocks = 4
	}
	if c.FileBlocks > lfs.MaxFileBlocks {
		return c, fmt.Errorf("serve: FileBlocks %d exceeds lfs limit %d", c.FileBlocks, lfs.MaxFileBlocks)
	}
	if c.ZipfTheta < 0 || c.ZipfTheta >= 1 {
		return c, fmt.Errorf("serve: ZipfTheta %g outside [0,1)", c.ZipfTheta)
	}
	if c.SegmentBlocks <= 0 {
		c.SegmentBlocks = 256
	}
	if c.CheckpointBlocks <= 0 {
		// Each slot must hold imap + directory + liveness table for the
		// whole namespace; ~72 bytes per file covers all three with
		// headroom, doubled for the two slots.
		slotBlocks := (72*c.Files + 16384) / device.DataBytes
		c.CheckpointBlocks = nextPow2(2 * slotBlocks)
		if c.CheckpointBlocks < 2*c.SegmentBlocks {
			c.CheckpointBlocks = 2 * c.SegmentBlocks
		}
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1 << 16
	}
	if c.DeviceBlocks <= 0 {
		// Population ≈ 2 blocks/file (seed data + inode) plus journal
		// records; mix ops append at most ~1.5 blocks each with inode
		// rewrites and churn; leave cleaning headroom.
		need := c.CheckpointBlocks + 3*c.Files + 4*c.Ops + 8*c.SegmentBlocks + 8*c.HeatFiles
		c.DeviceBlocks = nextPow2(need)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.AffinityClasses <= 0 {
		c.AffinityClasses = 1
	}
	if c.AffinityClasses > 256 {
		return c, fmt.Errorf("serve: AffinityClasses %d exceeds the 256 heat classes", c.AffinityClasses)
	}
	if c.WritebackBlocks < 0 || c.CleanWatermark < 0 {
		return c, fmt.Errorf("serve: negative writeback/watermark")
	}
	if c.AuditEvery < 0 {
		return c, fmt.Errorf("serve: negative audit interval %d", c.AuditEvery)
	}
	if c.HeatFiles < 0 {
		return c, fmt.Errorf("serve: negative heat-file count %d", c.HeatFiles)
	}
	if c.Devices < 0 {
		return c, fmt.Errorf("serve: negative device count %d", c.Devices)
	}
	if c.ParityDevices < 0 || (c.Devices >= 1 && c.ParityDevices >= c.Devices) || (c.Devices == 0 && c.ParityDevices > 0) {
		return c, fmt.Errorf("serve: %d parity devices with %d devices", c.ParityDevices, c.Devices)
	}
	if c.DegradedDevices < 0 || c.DegradedDevices > c.ParityDevices {
		return c, fmt.Errorf("serve: %d degraded devices exceed %d parity", c.DegradedDevices, c.ParityDevices)
	}
	return c, nil
}

// OpStats summarises one op kind's virtual-time latency.
type OpStats struct {
	// Count is the number of ops of this kind applied.
	Count uint64 `json:"count"`
	// P50NS is the median virtual-time latency in nanoseconds (exact
	// to within a power-of-two histogram bucket, as is P99NS).
	P50NS int64 `json:"p50_ns"`
	// P99NS is the 99th-percentile latency in nanoseconds.
	P99NS int64 `json:"p99_ns"`
	// WorstNS is the exact worst-op latency.
	WorstNS int64 `json:"worst_ns"`
	// MeanNS is the arithmetic mean latency.
	MeanNS int64 `json:"mean_ns"`
	// SyncAmortizedNS is the mean flush cost per op of this kind:
	// buffered mutations (create/append/rename/delete) cost ~0 at
	// apply time because the device work hides in the next sync, so
	// each sync's latency is apportioned back equally over the
	// buffered ops it covered and reported here as a per-op mean.
	// Zero for kinds that carry their own device work (read, sync).
	// The true cost of a buffered op is MeanNS + SyncAmortizedNS.
	SyncAmortizedNS int64 `json:"sync_amortized_ns,omitempty"`
}

// SessionStats decomposes one session's total measured latency into
// where the virtual time went: DeviceNS is the session's own device
// commands (charged to its ops as they ran), LockWaitNS is time spent
// acquiring the FS metadata lock, and QueueNS is the remainder —
// virtual time the shared clock advanced under *other* sessions' ops
// while this one was mid-flight, i.e. queueing behind their device
// work. Over one device TotalNS = DeviceNS + LockWaitNS + QueueNS
// exactly: the three windows are disjoint by construction and virtual
// time is integer nanoseconds, so an op whose queue term comes out
// negative fails the run. Over a striped array DeviceNS sums member
// commands that ran in parallel in virtual time, so it can exceed
// TotalNS — by at most the member count — and the identity becomes an
// inequality: a negative per-op queue term is clamped at 0 there.
type SessionStats struct {
	// Session is the session id (shard index).
	Session int `json:"session"`
	// Ops counts the session's applied ops, population included.
	Ops uint64 `json:"ops"`
	// TotalNS sums the session's per-op shared-clock latencies.
	TotalNS int64 `json:"total_ns"`
	// DeviceNS is the session's own device time.
	DeviceNS int64 `json:"device_ns"`
	// LockWaitNS is time spent waiting for the FS lock.
	LockWaitNS int64 `json:"lock_wait_ns"`
	// QueueNS is time spent queued behind other sessions' device work.
	QueueNS int64 `json:"queue_ns"`
}

// Result is one serving run's measured trajectory point.
type Result struct {
	// Config echoes the full reproduction configuration, with every
	// auto-sized knob resolved.
	Config Config `json:"config"`
	// TotalOps counts every applied op, population phase included.
	TotalOps uint64 `json:"total_ops"`
	// VirtualNS is the virtual time the whole run consumed.
	VirtualNS int64 `json:"virtual_ns"`
	// ThroughputOpsPerSec is sustained throughput in ops per virtual
	// second.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_vsec"`
	// PerOp holds the latency summary per op kind, keyed by
	// workload.OpKind.String().
	PerOp map[string]OpStats `json:"per_op"`
	// PerSession decomposes each session's latency (own device time vs
	// lock-wait vs queueing), ordered by session id.
	PerSession []SessionStats `json:"per_session"`
	// BlocksAppended echoes the FS counter explaining the trajectory's
	// write volume, as do the four counters below.
	BlocksAppended uint64 `json:"blocks_appended"`
	// Syncs counts acked Sync calls.
	Syncs uint64 `json:"syncs"`
	// Checkpoints counts checkpoint-region rewrites.
	Checkpoints uint64 `json:"checkpoints"`
	// JournalRecords counts summary records appended.
	JournalRecords uint64 `json:"journal_records"`
	// CleanerPasses counts cleaning passes the run triggered.
	CleanerPasses uint64 `json:"cleaner_passes"`
	// BlocksCopied counts live blocks the cleaner moved.
	BlocksCopied uint64 `json:"blocks_copied"`
	// JournalReanchors counts explicit jump re-anchors of the summary
	// chain after a disconnected promise.
	JournalReanchors uint64 `json:"journal_reanchors"`
	// CheckpointFallbacks counts Syncs that fell back to a full
	// checkpoint because the journal window was exhausted.
	CheckpointFallbacks uint64 `json:"checkpoint_fallbacks"`
	// MovesInvalidated counts cleaner copies thrown away because the
	// foreground overwrote the block mid-pass.
	MovesInvalidated uint64 `json:"moves_invalidated"`
	// AuditSteps counts background audit steps the run executed (zero
	// unless Config.AuditEvery armed continuous verification, as are
	// the four counters below).
	AuditSteps uint64 `json:"audit_steps,omitempty"`
	// AuditRounds counts completed audit rounds (full sweeps of the
	// heated-line population).
	AuditRounds uint64 `json:"audit_rounds,omitempty"`
	// AuditLinesChecked counts line verifications audit steps ran.
	AuditLinesChecked uint64 `json:"audit_lines_checked,omitempty"`
	// AuditFindings counts tampered-line reports (expected zero in a
	// serving benchmark).
	AuditFindings uint64 `json:"audit_findings,omitempty"`
	// AuditDeviceNS is the audit's shadow device cost in virtual
	// nanoseconds — time the sweeps would have cost on-clock.
	AuditDeviceNS uint64 `json:"audit_device_ns,omitempty"`
	// AuditRepairs counts tamper findings the armed self-healing
	// repairer healed from parity (zero in a clean benchmark).
	AuditRepairs uint64 `json:"audit_repairs,omitempty"`
	// Devices echoes the member-device count (1 = raw device; absent
	// in pre-array trajectories, which benchcheck reads as 1).
	Devices int `json:"devices,omitempty"`
	// ParityDevices echoes the parity member count.
	ParityDevices int `json:"parity_devices,omitempty"`
	// Degraded is true when the run served with members failed.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedReads counts reads the array served via parity
	// reconstruction (zero on a healthy run, as are the two below).
	DegradedReads uint64 `json:"degraded_reads,omitempty"`
	// ReconstructedBlocks counts blocks rebuilt from parity.
	ReconstructedBlocks uint64 `json:"reconstructed_blocks,omitempty"`
	// ParityBlockWrites counts parity blocks the array flushed.
	ParityBlockWrites uint64 `json:"parity_block_writes,omitempty"`
	// PerDevice breaks the run down per member device (absent on a
	// single raw device).
	PerDevice []DeviceStats `json:"per_device,omitempty"`
}

// DeviceStats is one member device's share of an array run.
type DeviceStats struct {
	// Device is the member index.
	Device int `json:"device"`
	// ClockNS is the member's own virtual timeline; the run's
	// VirtualNS is the maximum over members (slowest-member contract).
	ClockNS int64 `json:"clock_ns"`
	// MagneticReads counts the member's magnetic block reads.
	MagneticReads uint64 `json:"magnetic_reads"`
	// MagneticWrites counts the member's magnetic block writes.
	MagneticWrites uint64 `json:"magnetic_writes"`
	// Failed is true when the member was failed during the run.
	Failed bool `json:"failed,omitempty"`
}

// session is one client's private replay state.
type session struct {
	id     int
	stream []workload.Op
	hists  map[workload.OpKind]*histogram
	// amort accumulates, per buffered-op kind, the total sync latency
	// apportioned back to ops of that kind (see OpStats.SyncAmortizedNS).
	amort map[workload.OpKind]int64
	// stats is the session's latency decomposition, accumulated op by
	// op from the per-op trace.Task counters.
	stats SessionStats
	err   error
}

// buffered reports whether an op kind's device work is deferred to the
// next sync (its apply-time latency is ~0 and the flush cost should be
// attributed back to it).
func buffered(k workload.OpKind) bool {
	switch k {
	case workload.OpCreate, workload.OpWrite, workload.OpRename, workload.OpDelete:
		return true
	}
	return false
}

// Run executes one serving run: it formats a quiet FS, generates every
// session's stream, replays them from Sessions concurrent goroutines
// and merges the per-session recorders into a Result. A nil tr runs
// untraced. Otherwise tr is installed on the run's device for the
// duration, the device and lfs layers emit their spans into it, and
// every applied op additionally emits one "serve" span tagged with its
// session id (V1 = lock-wait ns, V2 = own device ns — the queueing
// decomposition's inputs). Virtual time, layout and the Result are
// byte-identical with or without a tracer; per-session breakdowns are
// always collected.
func Run(cfg Config, tr *trace.Tracer) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	// Devices == 0 is the recorded-trajectory baseline (one raw
	// device); Devices == 1 builds a width-1 array, byte-identical to
	// the baseline by the fourth contract — the serve tests hold the
	// two trajectories equal.
	var dev device.Dev
	var arr *array.Array
	if cfg.Devices >= 1 {
		// Keep DeviceBlocks of *global* capacity: each data member
		// carries its share, rounded up to whole stripe units.
		d := cfg.Devices - cfg.ParityDevices
		su := cfg.SegmentBlocks
		memberBlocks := (cfg.DeviceBlocks + d*su - 1) / (d * su) * su
		arr, err = array.Build(cfg.Devices, device.QuietParams(memberBlocks), array.Params{StripeBlocks: su, Parity: cfg.ParityDevices})
		if err != nil {
			return Result{}, fmt.Errorf("serve: building array: %w", err)
		}
		dev = arr
	} else {
		dev = device.New(device.QuietParams(cfg.DeviceBlocks))
	}
	if tr != nil {
		dev.SetTracer(tr)
	}
	fs, err := lfs.New(dev, lfs.Params{
		SegmentBlocks:    cfg.SegmentBlocks,
		CheckpointBlocks: cfg.CheckpointBlocks,
		WritebackBlocks:  cfg.WritebackBlocks,
		CheckpointEvery:  cfg.CheckpointEvery,
		CleanWatermark:   cfg.CleanWatermark,
		Concurrency:      cfg.Concurrency,
		HeatAware:        true,
		ReserveSegments:  2,
		AuditEvery:       cfg.AuditEvery,
	})
	if err != nil {
		return Result{}, err
	}
	defer fs.Close()

	// Self-healing: with parity members and continuous verification
	// armed, the auditor's tamper findings are repaired in place from
	// cross-device parity (array.RepairLine).
	if arr != nil && cfg.ParityDevices > 0 && cfg.AuditEvery > 0 {
		fs.SetAuditRepairer(arr.RepairLine)
	}

	// Freeze the heated population before any session starts: identical
	// work whether or not auditing is armed, so the audit-on/audit-off
	// trajectories stay comparable.
	for i := 0; i < cfg.HeatFiles; i++ {
		name := fmt.Sprintf("frozen-%03d", i)
		ino, err := fs.Create(name, uint8(i%cfg.AffinityClasses))
		if err == nil {
			data := make([]byte, 2*device.DataBytes)
			for j := range data {
				data[j] = byte(i + 1)
			}
			err = fs.WriteFile(ino, data)
		}
		if err == nil {
			_, err = fs.HeatFile(name)
		}
		if err != nil {
			return Result{}, fmt.Errorf("serve: heat population %d/%d: %w", i, cfg.HeatFiles, err)
		}
	}
	if cfg.HeatFiles > 0 {
		if err := fs.Sync(); err != nil {
			return Result{}, fmt.Errorf("serve: heat population sync: %w", err)
		}
	}

	// Fail members only after the heated population exists, so the
	// degraded run serves (and reconstructs) real data.
	for i := 0; i < cfg.DegradedDevices; i++ {
		if err := arr.FailMember(cfg.Devices - 1 - i); err != nil {
			return Result{}, fmt.Errorf("serve: failing member %d: %w", cfg.Devices-1-i, err)
		}
	}

	// Partition namespace and op budget; the first shards absorb the
	// remainders so the totals are exact.
	sessions := make([]*session, cfg.Sessions)
	def := workload.DefaultMix(1, 1)
	for i := range sessions {
		files := cfg.Files / cfg.Sessions
		if i < cfg.Files%cfg.Sessions {
			files++
		}
		ops := cfg.Ops / cfg.Sessions
		if i < cfg.Ops%cfg.Sessions {
			ops++
		}
		mix := workload.Mix{
			Files:      files,
			FileBlocks: cfg.FileBlocks,
			Ops:        ops,
			Prefix:     fmt.Sprintf("s%03d", i),
			Affinity:   uint8(i % cfg.AffinityClasses),
			CreateW:    def.CreateW,
			AppendW:    def.AppendW,
			ReadW:      def.ReadW,
			RenameW:    def.RenameW,
			DeleteW:    def.DeleteW,
			ZipfTheta:  cfg.ZipfTheta,
			SyncEvery:  cfg.SyncEvery,
			BurstEvery: cfg.BurstEvery,
			BurstLen:   cfg.BurstLen,
		}
		sessions[i] = &session{
			id:     i,
			stream: mix.Generate(sim.NewRNG(workload.SessionSeed(cfg.Seed, i))),
			hists:  make(map[workload.OpKind]*histogram),
			amort:  make(map[workload.OpKind]int64),
		}
	}

	clock := dev.Clock()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			a := workload.NewApplier(fs)
			// pending counts this session's buffered ops per kind since
			// its last sync; each sync's latency is apportioned back over
			// them (the generated stream always ends with a sync, so no
			// buffered op goes unattributed).
			pending := make(map[workload.OpKind]uint64)
			for _, op := range s.stream {
				task := &trace.Task{}
				t0 := clock.Now()
				if err := a.ApplyTraced(op, task); err != nil {
					s.err = fmt.Errorf("serve: session %d: %w", s.id, err)
					return
				}
				lat := clock.Now() - t0
				lw, devNS := task.LockWaitNS(), task.DeviceNS()
				queue := int64(lat) - lw - devNS
				if queue < 0 {
					if cfg.Devices <= 1 {
						s.err = fmt.Errorf("serve: session %d: %s: latency %d ns < lock wait %d ns + device %d ns",
							s.id, op.Kind, lat, lw, devNS)
						return
					}
					queue = 0 // parallel member commands overlap
				}
				s.stats.Ops++
				s.stats.TotalNS += int64(lat)
				s.stats.DeviceNS += devNS
				s.stats.LockWaitNS += lw
				s.stats.QueueNS += queue
				tr.Emit(trace.Span{
					Name: op.Kind.String(), Cat: "serve",
					Track: 0, Session: int32(s.id),
					Start: int64(t0), Dur: int64(lat), V1: lw, V2: devNS,
				})
				h := s.hists[op.Kind]
				if h == nil {
					h = &histogram{}
					s.hists[op.Kind] = h
				}
				h.record(lat)
				switch {
				case op.Kind == workload.OpSync:
					var covered uint64
					for _, c := range pending {
						covered += c
					}
					if covered > 0 {
						for k, c := range pending {
							s.amort[k] += int64(lat) * int64(c) / int64(covered)
							delete(pending, k)
						}
					}
				case buffered(op.Kind):
					pending[op.Kind]++
				}
			}
		}(s)
	}
	wg.Wait()

	merged := make(map[workload.OpKind]*histogram)
	amortTotal := make(map[workload.OpKind]int64)
	var total uint64
	for _, s := range sessions {
		if s.err != nil {
			return Result{}, s.err
		}
		for k, h := range s.hists {
			m := merged[k]
			if m == nil {
				m = &histogram{}
				merged[k] = m
			}
			m.merge(h)
			total += h.count
		}
		for k, ns := range s.amort {
			amortTotal[k] += ns
		}
	}

	res := Result{
		Config:     cfg,
		TotalOps:   total,
		VirtualNS:  int64(clock.Now()),
		PerOp:      make(map[string]OpStats, len(merged)),
		PerSession: make([]SessionStats, len(sessions)),
	}
	for i, s := range sessions {
		s.stats.Session = s.id
		res.PerSession[i] = s.stats
	}
	if res.VirtualNS > 0 {
		res.ThroughputOpsPerSec = float64(total) / (float64(res.VirtualNS) / float64(time.Second))
	}
	for k, h := range merged {
		res.PerOp[k.String()] = OpStats{
			Count:           h.count,
			P50NS:           int64(h.quantile(0.50)),
			P99NS:           int64(h.quantile(0.99)),
			WorstNS:         int64(h.worst()),
			MeanNS:          int64(h.mean()),
			SyncAmortizedNS: amortTotal[k] / int64(h.count),
		}
	}
	st := fs.Stats()
	res.BlocksAppended = st.BlocksAppended
	res.Syncs = st.Syncs
	res.Checkpoints = st.Checkpoints
	res.JournalRecords = st.JournalRecords
	res.CleanerPasses = st.CleanerPasses
	res.BlocksCopied = st.CleanerCopied
	res.JournalReanchors = st.JournalReanchors
	res.CheckpointFallbacks = st.CheckpointFallbacks
	res.MovesInvalidated = st.CleanerStaleMoves
	res.AuditSteps = st.AuditSteps
	res.AuditRounds = st.AuditRounds
	res.AuditLinesChecked = st.AuditLinesChecked
	res.AuditFindings = st.AuditFindings
	res.AuditDeviceNS = st.AuditDeviceNS
	res.AuditRepairs = st.AuditRepairs
	res.Devices = cfg.Devices
	if res.Devices == 0 {
		res.Devices = 1
	}
	if arr != nil {
		ast := arr.ArrayStats()
		res.ParityDevices = ast.Parity
		res.Degraded = cfg.DegradedDevices > 0
		res.DegradedReads = ast.DegradedReads
		res.ReconstructedBlocks = ast.ReconstructedBlocks
		res.ParityBlockWrites = ast.ParityBlockWrites
		res.PerDevice = make([]DeviceStats, cfg.Devices)
		for m := 0; m < cfg.Devices; m++ {
			mst := arr.MemberDevice(m).Stats()
			res.PerDevice[m] = DeviceStats{
				Device:         m,
				ClockNS:        int64(ast.MemberClocks[m]),
				MagneticReads:  mst.MagneticReads,
				MagneticWrites: mst.MagneticWrites,
				Failed:         ast.Failed[m],
			}
		}
	}
	return res, nil
}
