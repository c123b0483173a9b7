package device

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sero/internal/manchester"
	"sero/internal/medium"
	"sero/internal/probe"
	"sero/internal/sim"
	"sero/internal/trace"
)

// Coding selects the write-once cell coding used for electrically
// written records (§8 "Efficiency").
type Coding int

// Available codings.
const (
	// CodingManchester stores 1 bit in 2 dots; the invalid HH state
	// makes tampering locally evident (the paper's default).
	CodingManchester Coding = iota
	// CodingWOM stores 2 bits in 3 dots (Rivest-Shamir write-once
	// code [33]): 25 % fewer heated dots and a one-time rewrite
	// capability, but every dot pattern is a valid codeword, so
	// tamper detection falls back to the record parse and the line
	// hash — the §8 trade-off, measurable in experiment E5.
	CodingWOM
)

// String names the coding.
func (c Coding) String() string {
	switch c {
	case CodingManchester:
		return "manchester"
	case CodingWOM:
		return "wom"
	default:
		return fmt.Sprintf("Coding(%d)", int(c))
	}
}

// Params configures a Device.
type Params struct {
	// Blocks is the number of 512-byte blocks the device exposes.
	Blocks int

	// Coding selects the electrical-record cell coding.
	Coding Coding

	// ErbRetries is how many times the electrical read protocol is
	// repeated per dot; a dot is declared heated as soon as one attempt
	// fails verification. More retries drive the probability of
	// missing a heated dot toward zero (experiment E7).
	ErbRetries int

	// Concurrency is the default worker count for fan-out operations
	// (VerifyLines, Scan). 0 or 1 means serial, keeping the paper's
	// single-sled virtual-time model: a pass costs the sum of its
	// per-line work.
	Concurrency int

	// Medium overrides the medium parameters; zero value means
	// derived defaults.
	Medium medium.Params

	// Timing overrides the probe latency model; zero value means
	// probe.DefaultTiming.
	Timing probe.Timing

	// Geometry overrides the probe-array geometry; zero value means
	// probe.DefaultGeometry.
	Geometry probe.Geometry

	// TrackOffset shifts every trace track id this device emits. An
	// array gives each member a disjoint offset so per-member worker
	// planes land on their own rows of the Chrome trace instead of
	// colliding on tracks 0..K.
	TrackOffset int32
}

// DefaultParams returns a device of the given size with the standard
// medium, timing and geometry models.
func DefaultParams(blocks int) Params {
	return Params{Blocks: blocks, ErbRetries: 8}
}

// QuietParams returns DefaultParams(blocks) on the quiet default
// medium (medium.Params.Quiet): every read and heat is deterministic.
// Tests, experiments and the serving benchmark build their devices
// from it.
func QuietParams(blocks int) Params {
	p := DefaultParams(blocks)
	p.Medium = medium.DefaultParams(blocks, DotsPerBlock).Quiet()
	return p
}

// Region-lock geometry. Blocks are grouped into regions of
// 1<<regionShiftBits blocks; each region hashes onto one of lockStripes
// stripe locks. Operations lock the stripes covering their block range
// in ascending stripe order, so any two overlapping ranges contend on
// at least one common stripe while disjoint ranges (distinct lines)
// proceed in parallel.
const (
	regionShiftBits = 4
	lockStripes     = 64
)

// Device is a simulated SERO probe-storage device. It is safe for
// concurrent use: operations on disjoint line regions run in parallel
// under striped region locks, while whole-medium operations (Scan,
// SaveImage) briefly exclude everything. See the package comment of
// package sero for the full concurrency contract.
type Device struct {
	p     Params
	med   *medium.Medium
	arr   *probe.Array
	clock *sim.Clock

	// Resolved timing/geometry, kept for building verification planes.
	timing probe.Timing
	geo    probe.Geometry

	// gate serialises whole-medium operations against per-region
	// traffic: block and line operations hold gate.RLock, Scan and
	// SaveImage hold gate.Lock.
	gate sync.RWMutex

	// stripes are the per-region locks (see regionShiftBits above).
	stripes [lockStripes]sync.Mutex

	// regMu guards the registry maps below. Lock ordering: a stripe
	// lock may be held when acquiring regMu, never the reverse.
	regMu sync.RWMutex

	// heated caches which blocks have been electrically written, so
	// the device can enforce the read protocol ("magnetically written
	// data must only be read magnetically and electrically written
	// data must only be read electrically", §3) without a scan. It is
	// a cache, not ground truth: Scan rebuilds it from the medium.
	heated map[uint64]bool

	// bad records blocks declared unusable after failed reads that
	// were *not* electrically written.
	bad map[uint64]bool

	// lines is the registry of heated lines, keyed by start PBA.
	lines map[uint64]LineInfo

	// lineSizes has bit N set once a 2^N-aligned line of 2^N blocks is
	// registered, so overlappingLine probes only the sizes in use. A
	// removed line may leave its bit set, which costs a probe and
	// nothing else. irregularLines is set when Scan registers a record
	// claiming any other range (only a forged record does), and sends
	// overlappingLine back to walking the registry until the next
	// rebuild.
	lineSizes      uint64
	irregularLines bool

	// xtalkSpan is how many blocks an electrical write's thermal
	// crosstalk can reach past the written block: EWB pulses the four
	// dot neighbours at i±1 and i±Cols, so with the medium's row
	// width of Cols dots the farthest disturbed dot is
	// ceil(Cols/DotsPerBlock) blocks away (1 for the standard
	// one-row-per-block layout).
	xtalkSpan uint64

	// arrMu guards the shared probe array: the actuator position is
	// one piece of mechanical state, so latency charges against it are
	// serialised even when the data-path work runs in parallel.
	arrMu sync.Mutex

	statsMu sync.Mutex
	stats   OpStats

	// fg is the device's foreground latency plane: the shared probe
	// array, the device clock and the device stats.
	fg plane

	// conc is the default fan-out width for VerifyLines and Scan.
	conc atomic.Int32

	// wobs, when set, observes every committed magnetic block write in
	// commit order — the crash-injection harness's tap point.
	wobs atomic.Pointer[WriteObserver]

	// robs, when set, observes every magnetic block read — the audit
	// engine's piggyback tap: blocks the cleaner (or any reader) just
	// pulled off the medium are fresh hints for incremental
	// verification.
	robs atomic.Pointer[ReadObserver]

	// tracer, when set, receives virtual-time spans from the write,
	// read and fan-out paths. Loaded with one atomic read per
	// instrumented operation; nil (the default) disables tracing
	// entirely — emission never advances any clock, so traced and
	// untraced runs are byte-identical in virtual time.
	tracer atomic.Pointer[trace.Tracer]
}

// SetTracer installs t as the device's span tracer (nil uninstalls).
// Safe to call at any time; in-flight operations observe the change at
// their next span boundary.
func (d *Device) SetTracer(t *trace.Tracer) {
	if t == nil {
		d.tracer.Store(nil)
		return
	}
	d.tracer.Store(t)
}

// Tracer returns the installed span tracer, or nil when tracing is
// disabled. Layers above the device (lfs) emit their spans through
// this, so one SetTracer call wires the whole stack.
func (d *Device) Tracer() *trace.Tracer { return d.tracer.Load() }

// WriteObserver observes one committed magnetic block write: pba and
// the 512-byte payload (valid only for the duration of the call; copy
// to retain). Observers run under the written blocks' stripe locks and
// may be invoked from concurrent worker planes, so they must be
// internally synchronised and fast.
type WriteObserver func(pba uint64, data []byte)

// SetWriteObserver installs fn as the device's write observer (nil
// uninstalls). This exists for test instrumentation — the
// crash-injection harness records the exact block-write stream so a
// medium can be reconstructed as of any write boundary.
func (d *Device) SetWriteObserver(fn WriteObserver) {
	if fn == nil {
		d.wobs.Store(nil)
		return
	}
	d.wobs.Store(&fn)
}

// ReadObserver observes one magnetic block read by PBA. Observers run
// under the read block's stripe lock and may be invoked from concurrent
// worker planes, so they must be internally synchronised and fast; they
// must not call back into the device. The audit engine installs one to
// piggyback hash-check scheduling on blocks the cleaner already reads.
type ReadObserver func(pba uint64)

// SetReadObserver installs fn as the device's read observer (nil
// uninstalls). Safe to call at any time; in-flight reads observe the
// change at their next block.
func (d *Device) SetReadObserver(fn ReadObserver) {
	if fn == nil {
		d.robs.Store(nil)
		return
	}
	d.robs.Store(&fn)
}

// plane is one independent latency-accounting context: a probe array
// (actuator position) plus the clock it advances and the stats it
// accumulates. The foreground plane is shared by all client operations
// and guarded by arrMu; verification workers get private planes whose
// clocks start at zero, so the fan-out engine can advance the device
// clock by the *maximum* per-worker elapsed time — the virtual-time
// model of parallel verification hardware.
type plane struct {
	arr    *probe.Array
	clock  *sim.Clock
	stats  *OpStats
	shared bool

	// track is the plane's trace track id: 0 for the foreground
	// plane, worker index + 1 for fan-out worker planes.
	track int32
	// base maps this plane's private clock onto the shared timeline
	// for span timestamps: the shared clock's reading when the fan-out
	// launched. 0 for the foreground plane, whose clock *is* the
	// shared one.
	base int64
	// task, when set, accumulates this plane's charges as the owning
	// operation's own device time (trace.Task attribution). Nil-safe.
	task *trace.Task
}

// charge applies f to the plane's probe array and returns the virtual
// time it consumed. For the shared foreground plane the array mutex is
// held across the charge, so the stopwatch observes only this
// operation's advance.
func (pl *plane) charge(d *Device, f func(*probe.Array)) time.Duration {
	if pl.shared {
		d.arrMu.Lock()
		defer d.arrMu.Unlock()
	}
	sw := sim.NewStopwatch(pl.clock)
	f(pl.arr)
	elapsed := sw.Elapsed()
	pl.task.AddDevice(elapsed)
	return elapsed
}

// record applies f to the plane's stats, locking when the plane is the
// shared foreground one.
func (pl *plane) record(d *Device, f func(*OpStats)) {
	if pl.shared {
		d.statsMu.Lock()
		defer d.statsMu.Unlock()
	}
	f(pl.stats)
}

// newPlane builds a private verification plane: its own probe array on
// its own zeroed clock, accumulating into its own stats. track is the
// plane's trace track id (worker index + 1) and base the shared
// clock's reading at fan-out launch, so the plane's spans land on the
// shared timeline.
func (d *Device) newPlane(track int32, base int64) *plane {
	clock := &sim.Clock{}
	return &plane{
		arr:   probe.NewArray(d.timing, d.geo, d.med.Params().PitchNM, clock),
		clock: clock,
		stats: &OpStats{},
		track: track,
		base:  base,
	}
}

// fgFor returns the foreground plane to charge an operation on: the
// shared plane itself when task is nil (the untraced fast path), or a
// copy of it bound to task, so the operation's charges accumulate into
// the task's own-device total without touching the shared plane value.
func (d *Device) fgFor(task *trace.Task) *plane {
	if task == nil {
		return &d.fg
	}
	pl := d.fg
	pl.task = task
	return &pl
}

// OpStats counts sector-level operations and their virtual-time cost.
type OpStats struct {
	MagneticReads   uint64        // sectors read magnetically (mrs)
	MagneticWrites  uint64        // sectors written magnetically (mws)
	ElectricReads   uint64        // sectors read electrically (ers)
	ElectricWrites  uint64        // sectors written electrically (ews)
	HeatLines       uint64        // lines heated
	VerifyLines     uint64        // line verifications
	CorrectedBytes  uint64        // bytes the sector code corrected on reads
	MagneticReadNS  time.Duration // virtual time charged to mrs
	MagneticWriteNS time.Duration // virtual time charged to mws
	ElectricReadNS  time.Duration // virtual time charged to ers
	ElectricWriteNS time.Duration // virtual time charged to ews
}

// add accumulates other into s.
func (s *OpStats) add(other *OpStats) {
	s.MagneticReads += other.MagneticReads
	s.MagneticWrites += other.MagneticWrites
	s.ElectricReads += other.ElectricReads
	s.ElectricWrites += other.ElectricWrites
	s.HeatLines += other.HeatLines
	s.VerifyLines += other.VerifyLines
	s.CorrectedBytes += other.CorrectedBytes
	s.MagneticReadNS += other.MagneticReadNS
	s.MagneticWriteNS += other.MagneticWriteNS
	s.ElectricReadNS += other.ElectricReadNS
	s.ElectricWriteNS += other.ElectricWriteNS
}

// Errors returned by Device operations.
var (
	// ErrOutOfRange reports a PBA beyond the device.
	ErrOutOfRange = errors.New("device: block address out of range")
	// ErrHeatedBlock reports a magnetic write or read aimed at an
	// electrically written block.
	ErrHeatedBlock = errors.New("device: block is electrically written (heated)")
	// ErrBadBlock reports an access to a block marked bad.
	ErrBadBlock = errors.New("device: block marked bad")
	// ErrNotHeated reports an electrical read of a block that holds no
	// electrical data.
	ErrNotHeated = errors.New("device: block is not electrically written")
)

// New builds a device. Medium geometry is derived from the block count
// unless overridden: one row of dots per block keeps the mapping
// simple and the seek model meaningful.
func New(p Params) *Device {
	if p.Blocks <= 0 {
		panic(fmt.Sprintf("device: non-positive block count %d", p.Blocks))
	}
	if p.ErbRetries <= 0 {
		p.ErbRetries = 8
	}
	mp := p.Medium
	if mp.Rows == 0 {
		mp = medium.DefaultParams(p.Blocks, DotsPerBlock)
	}
	if mp.Rows*mp.Cols < p.Blocks*DotsPerBlock {
		panic(fmt.Sprintf("device: medium %dx%d too small for %d blocks",
			mp.Rows, mp.Cols, p.Blocks))
	}
	t := p.Timing
	if t.BitCell == 0 {
		t = probe.DefaultTiming()
	}
	g := p.Geometry
	if g.ProbeRows == 0 {
		g = probe.DefaultGeometry()
	}
	clock := &sim.Clock{}
	d := &Device{
		p:      p,
		med:    medium.New(mp),
		clock:  clock,
		timing: t,
		geo:    g,
		heated: make(map[uint64]bool),
		bad:    make(map[uint64]bool),
		lines:  make(map[uint64]LineInfo),
	}
	d.xtalkSpan = uint64((mp.Cols + DotsPerBlock - 1) / DotsPerBlock)
	if d.xtalkSpan < 1 {
		d.xtalkSpan = 1
	}
	// The probe array's addressable capacity may be smaller than the
	// medium in scaled-down test configurations; the array is used for
	// latency accounting over a wrapped index space.
	d.arr = probe.NewArray(t, g, mp.PitchNM, clock)
	d.fg = plane{arr: d.arr, clock: d.clock, stats: &d.stats, shared: true}
	d.SetConcurrency(p.Concurrency)
	return d
}

// Blocks returns the number of blocks.
func (d *Device) Blocks() int { return d.p.Blocks }

// Params returns the device's construction parameters — what an array
// needs to commission an identical spare sled for a member rebuild.
func (d *Device) Params() Params { return d.p }

// Clock returns the device's virtual clock.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Medium exposes the underlying medium for fault injection, forensics
// oracles and attack simulations. Production code above the device
// layer must not touch it. Mutating the medium while device commands
// run concurrently is a data race in the simulator (the medium itself
// is unsynchronised); a forged frame goes through ForgeBlock, and
// other live-load raw edits through TamperRaw or TamperExclusive.
func (d *Device) Medium() *medium.Medium { return d.med }

// ForgeBlock writes a fully valid sector frame for pba carrying data
// (zero-padded or truncated to DataBytes) straight onto the medium,
// under TamperRaw on that block. It is the §5 insider with raw medium
// access: the forged frame has a correct CRC, parity and header
// address, so the tamper evidence must come from the heated hashes,
// not from the framing. It runs no protocol check (a heated line's
// blocks are overwritten like any other; only the medium's own
// heated dots resist), charges no virtual time, counts no stats and
// notifies no observer. Only an address outside the device is
// refused. Test/attack instrumentation only.
func (d *Device) ForgeBlock(pba uint64, data []byte) error {
	if err := d.checkPBA(pba); err != nil {
		return fmt.Errorf("device: forge: %w", err)
	}
	img := make([]byte, PhysicalBytes)
	putFrame(img, pba, FlagData, data)
	d.TamperRaw(pba, pba+1, func(m *medium.Medium) { m.MWBImage(d.dotBase(pba), img) })
	return nil
}

// TamperRaw runs f against the raw medium while holding the stripe
// locks covering blocks [start, end) — the attack-simulation analogue
// of physical access with a probe tip: the adversary's raw dot writes
// are atomic with respect to concurrent device commands at block
// granularity, but bypass every device-level check and charge no
// virtual time. Test/attack instrumentation only.
func (d *Device) TamperRaw(start, end uint64, f func(m *medium.Medium)) {
	if end <= start {
		return
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	locked := d.lockRange(start, end)
	defer d.unlockRange(locked)
	f(d.med)
}

// TamperExclusive runs f against the raw medium with the whole device
// quiesced (the gate held exclusively, like Scan) — for whole-medium
// attacks such as bulk erasure that cannot be bounded to a block
// range. Test/attack instrumentation only.
func (d *Device) TamperExclusive(f func(m *medium.Medium)) {
	d.gate.Lock()
	defer d.gate.Unlock()
	f(d.med)
}

// Concurrency returns the default fan-out width for VerifyLines and
// Scan.
func (d *Device) Concurrency() int { return int(d.conc.Load()) }

// SetConcurrency sets the default fan-out width; values below 1 are
// clamped to 1 (serial).
func (d *Device) SetConcurrency(k int) {
	if k < 1 {
		k = 1
	}
	d.conc.Store(int32(k))
}

// Stats returns a copy of the operation counters.
func (d *Device) Stats() OpStats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters.
func (d *Device) ResetStats() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.stats = OpStats{}
}

// mergeStats folds a private plane's counters into the device stats.
func (d *Device) mergeStats(other *OpStats) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.stats.add(other)
}

// dotBase returns the first dot index of block pba.
func (d *Device) dotBase(pba uint64) int { return int(pba) * DotsPerBlock }

// chargeIndex maps a block's dot range into the probe array's index
// space for latency accounting.
func (d *Device) chargeIndex(first int) int {
	cap := d.arr.Capacity()
	return first % cap
}

func (d *Device) checkPBA(pba uint64) error {
	if pba >= uint64(d.p.Blocks) {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, pba, d.p.Blocks)
	}
	return nil
}

// lockBlock acquires the single stripe covering block pba and returns
// its index for unlockBlock. This is the allocation-free fast path
// for single-block operations, the hottest locking pattern.
func (d *Device) lockBlock(pba uint64) int {
	s := int((pba >> regionShiftBits) % lockStripes)
	d.stripes[s].Lock()
	return s
}

// unlockBlock releases a stripe acquired by lockBlock.
func (d *Device) unlockBlock(s int) { d.stripes[s].Unlock() }

// lockRange acquires the stripe locks covering blocks [start, end) in
// ascending stripe order — the single global order that keeps
// multi-stripe acquisition deadlock-free — and returns the locked
// stripe indices for unlockRange.
func (d *Device) lockRange(start, end uint64) []int {
	r0 := start >> regionShiftBits
	r1 := (end - 1) >> regionShiftBits
	var idx []int
	if r1-r0+1 >= lockStripes {
		idx = make([]int, lockStripes)
		for i := range idx {
			idx[i] = i
		}
	} else {
		seen := [lockStripes]bool{}
		for r := r0; r <= r1; r++ {
			s := int(r % lockStripes)
			if !seen[s] {
				seen[s] = true
				idx = append(idx, s)
			}
		}
		sort.Ints(idx)
	}
	for _, s := range idx {
		d.stripes[s].Lock()
	}
	return idx
}

// unlockRange releases stripes acquired by lockRange.
func (d *Device) unlockRange(idx []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		d.stripes[idx[i]].Unlock()
	}
}

// lockCrosstalkRange locks the stripes for a range that will be
// written *electrically*: heating a dot thermally disturbs its
// immediate dot neighbours, which live up to xtalkSpan blocks away
// (exactly the adjacent blocks for the standard one-row-per-block
// layout), so the locked range is widened by that many blocks on each
// side (clamped to the device).
func (d *Device) lockCrosstalkRange(start, end uint64) []int {
	if start > d.xtalkSpan {
		start -= d.xtalkSpan
	} else {
		start = 0
	}
	if end+d.xtalkSpan < uint64(d.p.Blocks) {
		end += d.xtalkSpan
	} else {
		end = uint64(d.p.Blocks)
	}
	return d.lockRange(start, end)
}

// magWriteCheck reports why block pba cannot be magnetically written
// (heated, bad, or inside a heated line). Caller holds the block's
// stripe lock.
func (d *Device) magWriteCheck(pba uint64) error {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	if d.heated[pba] {
		return fmt.Errorf("%w: %d", ErrHeatedBlock, pba)
	}
	if d.bad[pba] {
		return fmt.Errorf("%w: %d", ErrBadBlock, pba)
	}
	if _, ok := d.overlappingLine(pba, pba+1); ok {
		// Honest firmware refuses to overwrite members of a heated
		// line: the data is read-only after the heat operation. An
		// attacker bypasses this via raw medium access — and is then
		// caught by VerifyLine.
		return fmt.Errorf("%w: %d is inside a heated line", ErrHeatedBlock, pba)
	}
	return nil
}

// magReadCheck reports why block pba cannot be magnetically read.
func (d *Device) magReadCheck(pba uint64) error {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	if d.heated[pba] {
		return fmt.Errorf("%w: %d", ErrHeatedBlock, pba)
	}
	if d.bad[pba] {
		return fmt.Errorf("%w: %d", ErrBadBlock, pba)
	}
	return nil
}

// MWS magnetically writes 512 bytes of data to block pba (the paper's
// mws). Writing to a heated or bad block fails.
func (d *Device) MWS(pba uint64, data []byte) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	return d.writeRun(&d.fg, pba, [][]byte{data})
}

// writeRun is the one checked magnetic write command: it refuses a
// payload that is not DataBytes long, a run reaching past the device,
// and a run with any heated, bad or heated-line member — all before
// the first bit is written, so a refused run writes nothing — and
// otherwise commits the run on pl under its stripe locks. Caller holds
// the gate read lock.
func (d *Device) writeRun(pl *plane, start uint64, blocks [][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	for i, b := range blocks {
		if len(b) != DataBytes {
			return fmt.Errorf("device: payload %d bytes at block %d, want %d",
				len(b), start+uint64(i), DataBytes)
		}
	}
	end := start + uint64(len(blocks))
	if err := d.checkPBA(start); err != nil {
		return err
	}
	if end > uint64(d.p.Blocks) {
		return fmt.Errorf("%w: [%d,%d) beyond %d blocks",
			ErrOutOfRange, start, end, d.p.Blocks)
	}
	locked := d.lockRange(start, end)
	defer d.unlockRange(locked)
	for pba := start; pba < end; pba++ {
		if err := d.magWriteCheck(pba); err != nil {
			return err
		}
	}
	d.writeRunOn(pl, start, blocks)
	return nil
}

// writeRunOn magnetically writes a pre-validated contiguous run of
// blocks on the given plane as one device command: the servo settles
// once, then the frames stream dot-contiguously — the write-side
// mirror of the contiguous line-image read pass. Caller holds the gate
// read lock and the run's stripe locks and has passed magWriteCheck
// for every block of the run.
func (d *Device) writeRunOn(pl *plane, start uint64, blocks [][]byte) {
	base := d.dotBase(start)
	tr := d.tracer.Load()
	var t0, t1 time.Duration
	elapsed := pl.charge(d, func(a *probe.Array) {
		// The probe clock is read (never advanced) inside the charge
		// window so the settle/transfer split lands on the shared
		// timeline exactly where the charges did.
		if tr != nil {
			t0 = pl.clock.Now()
		}
		a.ChargeWriteSetup()
		if tr != nil {
			t1 = pl.clock.Now()
		}
		a.ChargeMagneticWrite(d.chargeIndex(base), len(blocks)*DotsPerBlock)
	})
	if tr != nil {
		tr.Emit(trace.Span{Name: "settle", Cat: "device", Track: pl.track + d.p.TrackOffset, Session: -1,
			Start: pl.base + int64(t0), Dur: int64(t1 - t0), V1: int64(len(blocks)), V2: int64(start)})
		tr.Emit(trace.Span{Name: "write", Cat: "device", Track: pl.track + d.p.TrackOffset, Session: -1,
			Start: pl.base + int64(t1), Dur: int64(t0+elapsed) - int64(t1), V1: int64(len(blocks)), V2: int64(start)})
	}
	img := frameImages.Get().(*[PhysicalBytes]byte)
	defer frameImages.Put(img)
	for i, data := range blocks {
		pba := start + uint64(i)
		putFrame(img[:], pba, FlagData, data)
		d.med.MWBImage(d.dotBase(pba), img[:])
	}
	pl.record(d, func(st *OpStats) {
		st.MagneticWrites += uint64(len(blocks))
		st.MagneticWriteNS += elapsed
	})
	if fn := d.wobs.Load(); fn != nil {
		for i, data := range blocks {
			(*fn)(start+uint64(i), data)
		}
	}
}

// WriteBlocks magnetically writes len(blocks) consecutive sectors
// starting at start as one batched command: the stripe locks covering
// the run are taken once, seek and settle are charged once for the
// whole run, and the frames then stream. Every target block is checked
// before the first bit is written, so a refused run writes nothing.
func (d *Device) WriteBlocks(start uint64, blocks [][]byte) error {
	return d.WriteBlocksTraced(nil, start, blocks)
}

// WriteBlocksTraced is WriteBlocks with the command's device charges
// attributed to task (nil behaves exactly like WriteBlocks) — the
// entry point the traced lfs paths use so per-op own-device time can
// be split from queueing.
func (d *Device) WriteBlocksTraced(task *trace.Task, start uint64, blocks [][]byte) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	return d.writeRun(d.fgFor(task), start, blocks)
}

// MRS magnetically reads block pba (the paper's mrs), returning the
// 512-byte payload. It refuses to magnetically read a block known to be
// electrically written (protocol rule of §3); reading an unknown heated
// block surfaces as ErrUncorrectable, after which the caller should
// probe with ERS.
func (d *Device) MRS(pba uint64) ([]byte, error) {
	return d.MRSTraced(nil, pba)
}

// MRSTraced is MRS with the read's device charge attributed to task
// (nil behaves exactly like MRS) — the entry point the traced lfs read
// path uses so per-op own-device time can be split from queueing.
func (d *Device) MRSTraced(task *trace.Task, pba uint64) ([]byte, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	return d.readBlock(d.fgFor(task), pba)
}

// readBlock is the one checked magnetic block read: it refuses a block
// out of range, heated or bad, and otherwise reads it on pl under its
// stripe lock. Caller holds the gate read lock.
func (d *Device) readBlock(pl *plane, pba uint64) ([]byte, error) {
	if err := d.checkPBA(pba); err != nil {
		return nil, err
	}
	locked := d.lockBlock(pba)
	defer d.unlockBlock(locked)
	if err := d.magReadCheck(pba); err != nil {
		return nil, err
	}
	buf := make([]byte, DataBytes)
	if err := d.mrsInto(pl, pba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// mrsInto magnetically reads block pba into dst (DataBytes long) on the
// given plane. Caller holds the gate read lock and the block's stripe
// lock and has passed magReadCheck.
func (d *Device) mrsInto(pl *plane, pba uint64, dst []byte) error {
	base := d.dotBase(pba)
	tr := d.tracer.Load()
	var t0 time.Duration
	elapsed := pl.charge(d, func(a *probe.Array) {
		if tr != nil {
			t0 = pl.clock.Now()
		}
		a.ChargeMagneticRead(d.chargeIndex(base), DotsPerBlock)
	})
	if tr != nil {
		tr.Emit(trace.Span{Name: "read", Cat: "device", Track: pl.track + d.p.TrackOffset, Session: -1,
			Start: pl.base + int64(t0), Dur: int64(elapsed), V1: 1, V2: int64(pba)})
	}
	img := frameImages.Get().(*[PhysicalBytes]byte)
	defer frameImages.Put(img)
	d.med.MRBImage(base, img[:])
	corrected, err := decodeFrame(img[:], pba)
	pl.record(d, func(st *OpStats) {
		st.MagneticReads++
		st.MagneticReadNS += elapsed
		st.CorrectedBytes += uint64(corrected)
	})
	if fn := d.robs.Load(); fn != nil {
		(*fn)(pba)
	}
	if err != nil {
		return err
	}
	copy(dst, img[HeaderBytes:HeaderBytes+DataBytes])
	return nil
}

// EWS electrically writes payload into block pba's data region using
// the device's cell coding (the paper's ews). Manchester doubles the
// footprint, so up to 256 bytes fit the 4096-dot data region (341 with
// the WOM coding). Heating is irreversible; the block becomes
// read-only-electrical afterwards.
func (d *Device) EWS(pba uint64, payload []byte) error {
	if len(payload) == 0 || d.codingDots(len(payload)) > DataRegionDots {
		return fmt.Errorf("device: EWS payload %d bytes does not fit %d dots",
			len(payload), DataRegionDots)
	}
	d.gate.RLock()
	defer d.gate.RUnlock()
	if err := d.checkPBA(pba); err != nil {
		return err
	}
	locked := d.lockCrosstalkRange(pba, pba+1)
	defer d.unlockRange(locked)
	if err := d.ewsCheck(pba); err != nil {
		return err
	}
	d.ewsOn(&d.fg, pba, payload)
	d.regMu.Lock()
	d.heated[pba] = true
	d.regMu.Unlock()
	return nil
}

// ewsCheck reports why block pba cannot be electrically written.
func (d *Device) ewsCheck(pba uint64) error {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	if d.bad[pba] {
		return fmt.Errorf("%w: %d", ErrBadBlock, pba)
	}
	return nil
}

// codingDots returns the dot footprint of n payload bytes under the
// device's coding.
func (d *Device) codingDots(n int) int {
	if d.p.Coding == CodingWOM {
		return manchester.WOMEncodedDots(n)
	}
	return manchester.EncodedDots(n)
}

// ewsOn performs the electrical sector write on the given plane.
// Caller holds the gate read lock and the crosstalk-widened stripe
// locks and has passed ewsCheck; caller also updates the heated cache.
func (d *Device) ewsOn(pl *plane, pba uint64, payload []byte) {
	var flags []bool
	if d.p.Coding == CodingWOM {
		flags = manchester.WOMEncode(payload)
	} else {
		flags = manchester.Encode(payload)
	}
	base := d.dotBase(pba) + headerDotOffset()
	heatCount := 0
	for _, f := range flags {
		if f {
			heatCount++
		}
	}
	elapsed := pl.charge(d, func(a *probe.Array) {
		a.ChargeWriteSetup()
		a.ChargeElectricWrite(d.chargeIndex(base), heatCount)
	})
	for i, f := range flags {
		if f {
			d.med.EWB(base + i)
		}
	}
	pl.record(d, func(st *OpStats) {
		st.ElectricWrites++
		st.ElectricWriteNS += elapsed
	})
}

// ERS electrically reads block pba's data region (the paper's ers): the
// erb protocol runs over the first dots covering payloadLen bytes of
// Manchester data. The returned report carries the decoded payload and
// any tampered (HH) or unused (UU) cells.
func (d *Device) ERS(pba uint64, payloadLen int) (ERSReport, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	if err := d.checkPBA(pba); err != nil {
		return ERSReport{}, err
	}
	locked := d.lockBlock(pba)
	defer d.unlockBlock(locked)
	return d.ersOn(&d.fg, pba, payloadLen)
}

// ersOn performs the electrical sector read on the given plane. Caller
// holds the gate read lock (or the exclusive gate) and the block's
// stripe lock (not needed under the exclusive gate).
func (d *Device) ersOn(pl *plane, pba uint64, payloadLen int) (ERSReport, error) {
	if payloadLen <= 0 || d.codingDots(payloadLen) > DataRegionDots {
		return ERSReport{}, fmt.Errorf("device: ERS length %d invalid", payloadLen)
	}
	base := d.dotBase(pba) + headerDotOffset()
	n := d.codingDots(payloadLen)
	elapsed := pl.charge(d, func(a *probe.Array) {
		a.ChargeElectricRead(d.chargeIndex(base), n*d.p.ErbRetries)
	})
	flags := make([]bool, n)
	d.med.ERBRange(base, d.p.ErbRetries, flags)
	pl.record(d, func(st *OpStats) {
		st.ElectricReads++
		st.ElectricReadNS += elapsed
	})
	if d.p.Coding == CodingWOM {
		return decodeERSWOM(flags)
	}
	return decodeERS(flags)
}

// erbDot runs the 5-step erb protocol with retries on dot i: the dot is
// declared heated as soon as any attempt fails verification. A healthy
// dot with reasonable SNR essentially never fails, so false positives
// are negligible; retries only reduce false negatives. It is the
// one-dot case of the ranged read ersOn uses.
func (d *Device) erbDot(i int) bool {
	var heated [1]bool
	d.med.ERBRange(i, d.p.ErbRetries, heated[:])
	return heated[0]
}

// lowAmplitude reports whether dot i reads at well under the nominal
// signal amplitude (averaged over a few samples) — the signature of a
// destroyed multilayer as opposed to a pinned defect.
func (d *Device) lowAmplitude(i int) bool {
	const samples = 3
	var sum float64
	for s := 0; s < samples; s++ {
		v := d.med.MRBAnalog(i)
		if v < 0 {
			v = -v
		}
		sum += v
	}
	return sum/samples < 0.5*d.med.Params().SignalAmplitude
}

// IsHeatedCached reports whether the device believes block pba is
// electrically written, from its cache (no medium access).
func (d *Device) IsHeatedCached(pba uint64) bool {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	return d.heated[pba]
}

// ProbeHeated checks the medium (not the cache) for electrical data in
// block pba by sampling the first Manchester cells of its data region.
// Used by bad-block discrimination and by Scan. A block is considered
// electrically written only when at least one sampled cell contains
// exactly one heated dot — a structurally valid Manchester data cell.
// A block whose every sampled cell reads HH carries no decodable
// Manchester structure: it is either physically dead or shredded, and
// either way is safe to mark bad (marking never destroys the HH
// evidence on the medium). This is the paper's §3 discrimination
// problem: "a heated block should not be misinterpreted as a bad
// block".
//
// The probe samples between 32 and 512 cells (the heat record's
// HeatRecordBytes·8): a sampleCells below 32 samples 32, and one above
// 512 samples 512.
func (d *Device) ProbeHeated(pba uint64, sampleCells int) (bool, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	if err := d.checkPBA(pba); err != nil {
		return false, err
	}
	locked := d.lockBlock(pba)
	defer d.unlockBlock(locked)
	return d.probeHeatedOn(&d.fg, pba, sampleCells)
}

// probeHeatedOn runs the heated-block probe on the given plane. Caller
// holds the gate read lock and the block's stripe lock, or the
// exclusive gate (Scan), and has validated pba — like the other *On
// helpers, validation belongs to the public entry points.
func (d *Device) probeHeatedOn(pl *plane, pba uint64, sampleCells int) (bool, error) {
	// Samples are spread across the heat-record area rather than taken
	// from its front: a localised HH-burn attack on the first cells
	// must not hide the block's electrical nature from the scan.
	recordCells := HeatRecordBytes * 8
	sampleCells = min(max(sampleCells, 32), recordCells)
	stride := recordCells / sampleCells
	base := d.dotBase(pba) + headerDotOffset()
	elapsed := pl.charge(d, func(a *probe.Array) {
		a.ChargeElectricRead(d.chargeIndex(base), sampleCells*2*d.p.ErbRetries)
	})

	// A dot counts as genuinely heated only when the erb protocol
	// fails AND its analog amplitude is low: a defective (pinned) dot
	// also fails the inversion check, but at full read amplitude —
	// that distinction is what keeps bad blocks from masquerading as
	// electrical data. (A fully dead dot remains ambiguous; the
	// minimum-valid-cells threshold below covers it, since isolated
	// defects cannot fake the dense cell structure of a real record.)
	heatedDot := func(i int) bool {
		if !d.erbDot(i) {
			return false
		}
		return d.lowAmplitude(i)
	}
	valid := 0
	for i := 0; i < sampleCells; i++ {
		c := i * stride
		a := heatedDot(base + 2*c)
		b := heatedDot(base + 2*c + 1)
		if a != b { // exactly one heated: valid Manchester data cell
			valid++
		}
	}
	// Require a minimum density of valid write-once cells; scattered
	// media defects produce at most a couple.
	found := valid >= 4
	pl.record(d, func(st *OpStats) {
		st.ElectricReads++
		st.ElectricReadNS += elapsed
	})
	return found, nil
}

// MarkBad declares block pba bad after the caller has established (via
// ProbeHeated) that it is not electrically written. Marking a heated
// block bad is refused: that is exactly the misinterpretation §3 warns
// against.
func (d *Device) MarkBad(pba uint64) error {
	d.gate.RLock()
	defer d.gate.RUnlock()
	if err := d.checkPBA(pba); err != nil {
		return err
	}
	locked := d.lockBlock(pba)
	defer d.unlockBlock(locked)
	d.regMu.RLock()
	known := d.heated[pba]
	d.regMu.RUnlock()
	if known {
		return fmt.Errorf("%w: refusing to mark heated block %d bad", ErrHeatedBlock, pba)
	}
	ok, err := d.probeHeatedOn(&d.fg, pba, 32)
	if err != nil {
		return err
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if ok {
		d.heated[pba] = true
		return fmt.Errorf("%w: block %d is electrically written", ErrHeatedBlock, pba)
	}
	d.bad[pba] = true
	return nil
}

// IsBad reports whether block pba is marked bad.
func (d *Device) IsBad(pba uint64) bool {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	return d.bad[pba]
}

// HeatedBlocks returns the sorted list of blocks the device knows to be
// electrically written.
func (d *Device) HeatedBlocks() []uint64 {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	out := make([]uint64, 0, len(d.heated))
	for pba := range d.heated {
		out = append(out, pba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
