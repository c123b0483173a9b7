// Package array implements a striped multi-device composite behind
// the device.Dev contract: one logical block device over N simulated
// sleds, striping at segment granularity with rotated Reed–Solomon
// parity across members, degraded reads that reconstruct lost or
// unreadable blocks from parity, and self-healing repair (replace a
// lost member, replace a tampered heated line) — the FAST'08 design
// scaled past the single-sled ceiling along the classic striped-LFS
// lineage (Zebra: log striping over RAID-style parity, with the
// controller buffering full write deltas so parity updates never
// read-modify-write the media).
//
// Address space. Global block g lives in stripe gs = g/SU (SU =
// StripeBlocks), at offset g%SU. Stripe rows rotate parity RAID-5
// style: row k (the k-th stripe unit on every member) dedicates
// members (k+i) mod N, i < P, to parity; the remaining D = N−P
// members carry data stripes k·D … k·D+D−1 in ascending member order.
// A width-1 array (N=1, P=0) is the identity mapping over its single
// member, and every operation delegates wholesale — byte-identical
// layout and virtual time with the raw device by construction (the
// fourth system-wide contract, ARCHITECTURE.md).
//
// Virtual time. Each member keeps its own clock (per-member
// foreground ops sum, exactly as on a raw device); the array's shared
// clock is raised to the furthest member clock after every operation
// (sim.Clock.AdvanceTo). N sleds are N actuators: operations landing
// on different members overlap, and an array operation costs its
// slowest member — the same slowest-worker contract that governs
// worker planes inside one device, lifted across devices.
//
// Parity. Every magnetic payload the array commits is mirrored in
// controller memory (the write-delta buffer), so a data write updates
// parity purely with writes: delta = old XOR new, each parity member's
// block at the same (row, offset) absorbs coef·delta, and dirty parity
// blocks flush as batched runs after the data lands. Heat records are
// electrical and excluded; heated lines' member blocks stay magnetic
// and stay covered. The window between a data write and its parity
// flush is the classic parity write hole: crash recovery replays the
// logical write stream through a fresh array, regenerating parity
// consistently (the md-style resync assumption; the lfs layer's acked
// durability is unaffected because unacked tails roll back anyway).
package array

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sero/internal/device"
	"sero/internal/ecc"
	"sero/internal/sim"
	"sero/internal/trace"
)

// TrackStride is the trace-track offset between members: member m's
// device emits spans on tracks [m·TrackStride, (m+1)·TrackStride).
const TrackStride = 32

// Params configure an array.
type Params struct {
	// StripeBlocks is the stripe unit in blocks (a power of two,
	// normally the file system's SegmentBlocks so one segment maps to
	// exactly one (member, local segment)).
	StripeBlocks int
	// Parity is the number of parity members P; the array survives up
	// to P simultaneous member losses. 0 ≤ P < N.
	Parity int
}

// Array-level errors.
var (
	// ErrGeometry reports invalid construction parameters.
	ErrGeometry = errors.New("array: invalid geometry")
	// ErrMemberFailed reports an operation that needs a member marked
	// failed (writes degrade gracefully; heats and verifies cannot).
	ErrMemberFailed = errors.New("array: member failed")
	// ErrTooManyFailures reports a reconstruction with more erasures
	// than parity members.
	ErrTooManyFailures = errors.New("array: more failures than parity can reconstruct")
	// ErrNotStripable reports a line that would cross a stripe-unit
	// boundary (lines must fit inside one member's stripe unit).
	ErrNotStripable = errors.New("array: line crosses a stripe-unit boundary")
)

// lineEntry is the array's registry view of one heated line.
type lineEntry struct {
	member int
	local  uint64
	logN   uint8
}

// Array is the striped composite. It implements device.Dev.
type Array struct {
	members []*device.Device
	mp      []device.Params // member construction params, for rebuilds
	su      int             // stripe unit in blocks
	n, p, d int
	rows    int // stripe rows per member
	blocks  int // global capacity in blocks

	clock *sim.Clock
	conc  atomic.Int32

	codec *ecc.Codec // nil when p == 0
	coef  [][]byte   // coef[dcol][j]: data column dcol's weight in parity j

	// mu guards mirror, written, pending, failed, lines and counters.
	// Rule: no member device I/O is ever issued under mu.
	mu      sync.Mutex
	mirror  [][][]byte // [member][local pba] → last committed payload (nil = never written)
	written [][]bool
	pending []map[uint64]bool // [member] → dirty parity blocks awaiting flush
	failed  []bool
	lines   map[uint64]lineEntry // global line start → placement
	cnt     counters
	// scanFindings are parity-territory anomalies from the last Scan.
	scanFindings []ScanFinding

	// flushMu serialises parity flushes per member so an older copy of
	// a parity block can never land after a newer one.
	flushMu []sync.Mutex

	wobs   atomic.Pointer[device.WriteObserver]
	robs   atomic.Pointer[device.ReadObserver]
	tracer atomic.Pointer[trace.Tracer]
}

// counters are the array's own statistics (device OpStats aggregate
// separately via Stats).
type counters struct {
	degradedReads  uint64
	reconstructed  uint64
	parityWrites   uint64
	repairedLines  uint64
	repairedMember uint64
}

var _ device.Dev = (*Array)(nil)

// New builds an array over the given members. All members must have
// the same block count, a multiple of p.StripeBlocks. The array
// installs its own write/read observers on every member (mirroring and
// parity depend on them); client observers go through
// SetWriteObserver/SetReadObserver on the array.
func New(members []*device.Device, p Params) (*Array, error) {
	n := len(members)
	if n < 1 {
		return nil, fmt.Errorf("%w: no members", ErrGeometry)
	}
	if p.Parity < 0 || p.Parity >= n {
		return nil, fmt.Errorf("%w: parity %d with %d members", ErrGeometry, p.Parity, n)
	}
	if n > 255 {
		return nil, fmt.Errorf("%w: %d members exceed the GF(2^8) codeword", ErrGeometry, n)
	}
	su := p.StripeBlocks
	if su <= 0 || su&(su-1) != 0 {
		return nil, fmt.Errorf("%w: stripe unit %d not a positive power of two", ErrGeometry, su)
	}
	mb := members[0].Blocks()
	for i, m := range members {
		if m.Blocks() != mb {
			return nil, fmt.Errorf("%w: member %d has %d blocks, member 0 has %d", ErrGeometry, i, m.Blocks(), mb)
		}
	}
	if mb%su != 0 {
		return nil, fmt.Errorf("%w: member capacity %d not a multiple of stripe unit %d", ErrGeometry, mb, su)
	}
	a := &Array{
		members: members,
		su:      su,
		n:       n,
		p:       p.Parity,
		d:       n - p.Parity,
		rows:    mb / su,
		clock:   &sim.Clock{},
		mirror:  make([][][]byte, n),
		written: make([][]bool, n),
		pending: make([]map[uint64]bool, n),
		failed:  make([]bool, n),
		lines:   make(map[uint64]lineEntry),
		flushMu: make([]sync.Mutex, n),
	}
	a.blocks = a.rows * a.d * a.su
	a.conc.Store(int32(members[0].Concurrency()))
	a.mp = make([]device.Params, n)
	for i, m := range members {
		a.mp[i] = m.Params()
	}
	for i := range members {
		a.mirror[i] = make([][]byte, mb)
		a.written[i] = make([]bool, mb)
		a.pending[i] = make(map[uint64]bool)
	}
	if a.p > 0 {
		a.codec = ecc.NewCodec(a.p)
		if a.d > a.codec.MaxData() {
			return nil, fmt.Errorf("%w: %d data members exceed codec capacity", ErrGeometry, a.d)
		}
		a.coef = make([][]byte, a.d)
		for dcol := 0; dcol < a.d; dcol++ {
			msg := make([]byte, a.d)
			msg[dcol] = 1
			cw := a.codec.Encode(msg)
			a.coef[dcol] = append([]byte(nil), cw[a.d:]...)
		}
	}
	for i := range members {
		a.hookMember(i)
	}
	return a, nil
}

// Build constructs n fresh members from dp (each given a disjoint
// trace-track range) and assembles them into an array.
func Build(n int, dp device.Params, p Params) (*Array, error) {
	members := make([]*device.Device, n)
	for i := 0; i < n; i++ {
		mp := dp
		mp.TrackOffset = int32(i) * TrackStride
		members[i] = device.New(mp)
	}
	return New(members, p)
}

// hookMember installs the array's observers on member m.
func (a *Array) hookMember(m int) {
	mi := m
	a.members[m].SetWriteObserver(func(lpba uint64, data []byte) {
		a.onMemberWrite(mi, lpba, data)
	})
	a.members[m].SetReadObserver(func(lpba uint64) {
		if fn := a.robs.Load(); fn != nil {
			if g, ok := a.globalOf(mi, lpba); ok {
				(*fn)(g)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Mapping.

// parityMember reports whether member m carries parity for row, and
// its parity index if so.
func (a *Array) parityMember(row int, m int) (int, bool) {
	if a.p == 0 {
		return 0, false
	}
	j := (m - row%a.n + a.n) % a.n
	if j < a.p {
		return j, true
	}
	return 0, false
}

// dataMember returns the member carrying data column dcol of row.
func (a *Array) dataMember(row, dcol int) int {
	if a.p == 0 {
		return dcol
	}
	first := (row%a.n + a.p) % a.n // first non-parity member
	return (first + dcol) % a.n
}

// dataColumn returns member m's data column in row (m must not be a
// parity member of the row).
func (a *Array) dataColumn(row, m int) int {
	if a.p == 0 {
		return m
	}
	first := (row%a.n + a.p) % a.n
	return (m - first + a.n) % a.n
}

// locate maps a global block to its (member, local pba, row, data
// column).
func (a *Array) locate(g uint64) (m int, lpba uint64, row, dcol int) {
	su := uint64(a.su)
	gs := g / su
	off := g % su
	row = int(gs / uint64(a.d))
	dcol = int(gs % uint64(a.d))
	m = a.dataMember(row, dcol)
	lpba = uint64(row)*su + off
	return m, lpba, row, dcol
}

// globalOf maps a member-local block back to its global address; ok is
// false for parity territory.
func (a *Array) globalOf(m int, lpba uint64) (uint64, bool) {
	su := uint64(a.su)
	row := int(lpba / su)
	off := lpba % su
	if _, isP := a.parityMember(row, m); isP {
		return 0, false
	}
	dcol := a.dataColumn(row, m)
	return (uint64(row)*uint64(a.d)+uint64(dcol))*su + off, true
}

// cwPos returns member m's codeword position in row: data columns
// occupy positions 0..D-1, parity j occupies D+j.
func (a *Array) cwPos(row, m int) int {
	if j, isP := a.parityMember(row, m); isP {
		return a.d + j
	}
	return a.dataColumn(row, m)
}

// splitRun cuts the global run [start, start+len(blocks)) at stripe
// boundaries into member-local runs, in global order.
type memberRun struct {
	member int
	run    device.WriteRun
}

func (a *Array) splitRun(start uint64, blocks [][]byte) []memberRun {
	var out []memberRun
	su := uint64(a.su)
	for len(blocks) > 0 {
		m, lpba, _, _ := a.locate(start)
		room := int(su - start%su)
		if room > len(blocks) {
			room = len(blocks)
		}
		out = append(out, memberRun{member: m, run: device.WriteRun{Start: lpba, Blocks: blocks[:room]}})
		start += uint64(room)
		blocks = blocks[room:]
	}
	return out
}

// scatter is the array's one member fan-out: the per-member grouping
// behind WriteRunsFanned, ReadBlocksFanned and VerifyLines. place maps
// item i (of n) to its member-local pieces, calling add(m, v) once per
// piece; an item that places nothing is skipped. Each member's pieces
// keep input order and are dispatched member by member: to live(m,
// idx, vs), one batched member call over vs where idx[k] is the item
// piece vs[k] came from, or — when m is marked failed — piece by piece
// to failed(m, i, v).
func scatter[T any](a *Array, n int,
	place func(i int, add func(m int, v T)),
	live func(m int, idx []int, vs []T),
	failed func(m, i int, v T)) {
	idx := make([][]int, a.n)
	vals := make([][]T, a.n)
	for i := 0; i < n; i++ {
		place(i, func(m int, v T) {
			idx[m] = append(idx[m], i)
			vals[m] = append(vals[m], v)
		})
	}
	for m := range idx {
		switch {
		case len(idx[m]) == 0:
		case a.Failed(m):
			for k, i := range idx[m] {
				failed(m, i, vals[m][k])
			}
		default:
			live(m, idx[m], vals[m])
		}
	}
}

// checkRange validates a global range.
func (a *Array) checkRange(start uint64, n int) error {
	if start+uint64(n) > uint64(a.blocks) {
		return fmt.Errorf("array: range [%d,%d) beyond %d blocks", start, start+uint64(n), a.blocks)
	}
	return nil
}

// ---------------------------------------------------------------------
// Geometry, clocks, stats, observability.

// Blocks returns the global capacity: rows × D × stripe unit.
func (a *Array) Blocks() int { return a.blocks }

// Members returns the member count.
func (a *Array) Members() int { return a.n }

// ParityMembers returns the parity member count P.
func (a *Array) ParityMembers() int { return a.p }

// StripeBlocks returns the stripe unit.
func (a *Array) StripeBlocks() int { return a.su }

// MemberDevice exposes member m's raw device (adversary access in
// campaigns, per-member findings in serofsck). The returned device's
// addresses are member-local.
func (a *Array) MemberDevice(m int) *device.Device { return a.members[m] }

// Locate translates a global block address to (member, local pba) —
// the per-sled view tools need for per-device findings.
func (a *Array) Locate(g uint64) (member int, lpba uint64) {
	m, l, _, _ := a.locate(g)
	return m, l
}

// Clock returns the array's shared clock: the furthest member clock
// as of the last completed operation.
func (a *Array) Clock() *sim.Clock { return a.clock }

// syncClock raises the shared clock to the furthest member timeline.
func (a *Array) syncClock() {
	for _, m := range a.members {
		a.clock.AdvanceTo(m.Clock().Now())
	}
}

// Concurrency returns the configured fan-out width.
func (a *Array) Concurrency() int { return int(a.conc.Load()) }

// SetConcurrency sets the fan-out width on the array and every member.
func (a *Array) SetConcurrency(k int) {
	if k < 1 {
		k = 1
	}
	a.conc.Store(int32(k))
	for _, m := range a.members {
		m.SetConcurrency(k)
	}
}

// Stats returns the sum of member operation stats.
func (a *Array) Stats() device.OpStats {
	var out device.OpStats
	for _, m := range a.members {
		st := m.Stats()
		out.MagneticReads += st.MagneticReads
		out.MagneticWrites += st.MagneticWrites
		out.ElectricReads += st.ElectricReads
		out.ElectricWrites += st.ElectricWrites
		out.HeatLines += st.HeatLines
		out.VerifyLines += st.VerifyLines
		out.CorrectedBytes += st.CorrectedBytes
		out.MagneticReadNS += st.MagneticReadNS
		out.MagneticWriteNS += st.MagneticWriteNS
		out.ElectricReadNS += st.ElectricReadNS
		out.ElectricWriteNS += st.ElectricWriteNS
	}
	return out
}

// ResetStats clears member operation stats and the array counters.
func (a *Array) ResetStats() {
	for _, m := range a.members {
		m.ResetStats()
	}
	a.mu.Lock()
	a.cnt = counters{}
	a.mu.Unlock()
}

// Tracer returns the installed tracer.
func (a *Array) Tracer() *trace.Tracer { return a.tracer.Load() }

// SetTracer installs t on the array and every member (members emit on
// disjoint track ranges via their TrackOffset).
func (a *Array) SetTracer(t *trace.Tracer) {
	if t == nil {
		a.tracer.Store(nil)
	} else {
		a.tracer.Store(t)
	}
	for _, m := range a.members {
		m.SetTracer(t)
	}
}

// SetWriteObserver installs the client's committed-write tap. It sees
// global data writes only — parity maintenance is the array's
// internal bookkeeping, regenerated on any replay of the data stream.
func (a *Array) SetWriteObserver(fn device.WriteObserver) {
	if fn == nil {
		a.wobs.Store(nil)
		return
	}
	a.wobs.Store(&fn)
}

// SetReadObserver installs the client's read tap (global addresses,
// data territory only).
func (a *Array) SetReadObserver(fn device.ReadObserver) {
	if fn == nil {
		a.robs.Store(nil)
		return
	}
	a.robs.Store(&fn)
}

// ---------------------------------------------------------------------
// Mirror and parity bookkeeping.

// onMemberWrite is the array's member write observer: every committed
// magnetic write on any member lands here, under that member's write
// locks. Data-territory writes update the mirror, fold their delta
// into the parity mirrors, and forward to the client observer; parity
// territory is ignored (the parity mirror is maintained exclusively by
// the delta path, so a flushed value can never stomp a newer delta).
func (a *Array) onMemberWrite(m int, lpba uint64, data []byte) {
	row := int(lpba / uint64(a.su))
	if _, isP := a.parityMember(row, m); isP {
		a.mu.Lock()
		a.written[m][lpba] = true
		a.mu.Unlock()
		return
	}
	a.mu.Lock()
	a.applyDataWriteLocked(m, lpba, row, data)
	fn := a.wobs.Load()
	var g uint64
	if fn != nil {
		g, _ = a.globalOf(m, lpba)
	}
	a.mu.Unlock()
	if fn != nil {
		(*fn)(g, data)
	}
}

// applyDataWriteLocked folds one committed data write into the mirror
// and the parity mirrors. Caller holds a.mu.
func (a *Array) applyDataWriteLocked(m int, lpba uint64, row int, data []byte) {
	old := a.mirror[m][lpba]
	if a.p > 0 {
		dcol := a.dataColumn(row, m)
		for j := 0; j < a.p; j++ {
			pm := (row%a.n + j) % a.n
			c := a.coef[dcol][j]
			pv := a.mirror[pm][lpba]
			if pv == nil {
				pv = make([]byte, device.DataBytes)
				a.mirror[pm][lpba] = pv
			}
			if old == nil {
				for b := range data {
					pv[b] ^= ecc.Mul(c, data[b])
				}
			} else {
				for b := range data {
					pv[b] ^= ecc.Mul(c, old[b]^data[b])
				}
			}
			a.pending[pm][lpba] = true
		}
	}
	cp := a.mirror[m][lpba]
	if cp == nil {
		cp = make([]byte, device.DataBytes)
		a.mirror[m][lpba] = cp
	}
	copy(cp, data)
	a.written[m][lpba] = true
}

// applyFailedWrite records a data write targeted at a failed member:
// no device I/O, but the mirror and parity absorb it (so the write is
// reconstructable — zero acked-write loss through a degraded window)
// and the client observer still sees it.
func (a *Array) applyFailedWrite(m int, lpba uint64, data []byte) {
	row := int(lpba / uint64(a.su))
	a.mu.Lock()
	a.applyDataWriteLocked(m, lpba, row, data)
	fn := a.wobs.Load()
	var g uint64
	if fn != nil {
		g, _ = a.globalOf(m, lpba)
	}
	a.mu.Unlock()
	if fn != nil {
		(*fn)(g, data)
	}
}

// applyFailedRun records a run targeted at failed member m, block by
// block (see applyFailedWrite).
func (a *Array) applyFailedRun(m int, r device.WriteRun) {
	for i, b := range r.Blocks {
		a.applyFailedWrite(m, r.Start+uint64(i), b)
	}
}

// flushParity writes every dirty parity block as batched runs on its
// member. flushMu serialises flushes per member: the pending set and
// the values are captured under it, so device write order matches
// mirror order. Every member is flushed; the first refusal is
// returned. A refused parity run leaves the parity mirror as the only
// copy, so the caller must not acknowledge the data it covers.
func (a *Array) flushParity(task *trace.Task) error {
	if a.p == 0 {
		return nil
	}
	var first error
	for pm := 0; pm < a.n; pm++ {
		a.mu.Lock()
		dirty := len(a.pending[pm]) > 0
		a.mu.Unlock()
		if !dirty {
			continue
		}
		if err := a.flushMember(task, pm); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushMember drains member pm's dirty parity blocks, returning the
// first run the member refused.
func (a *Array) flushMember(task *trace.Task, pm int) error {
	a.flushMu[pm].Lock()
	defer a.flushMu[pm].Unlock()
	a.mu.Lock()
	if len(a.pending[pm]) == 0 {
		a.mu.Unlock()
		return nil
	}
	pbas := make([]uint64, 0, len(a.pending[pm]))
	for lpba := range a.pending[pm] {
		pbas = append(pbas, lpba)
	}
	sort.Slice(pbas, func(i, j int) bool { return pbas[i] < pbas[j] })
	vals := make([][]byte, len(pbas))
	for i, lpba := range pbas {
		vals[i] = append([]byte(nil), a.mirror[pm][lpba]...)
		delete(a.pending[pm], lpba)
		a.written[pm][lpba] = true
	}
	failed := a.failed[pm]
	a.cnt.parityWrites += uint64(len(pbas))
	a.mu.Unlock()
	if failed {
		return nil // mirror holds the truth; the rebuild rewrites it
	}
	var runs []device.WriteRun
	for i, j := range device.ConsecutiveRuns(len(pbas), func(k int) uint64 { return pbas[k] }) {
		runs = append(runs, device.WriteRun{Start: pbas[i], Blocks: vals[i:j]})
	}
	for _, err := range a.members[pm].WriteRunsFannedTraced(task, runs, a.Concurrency()) {
		if err != nil {
			return fmt.Errorf("array: parity flush refused on member %d: %w", pm, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Magnetic block I/O.

// MRS reads one global block, reconstructing from parity when the
// member is failed or unreadable.
func (a *Array) MRS(pba uint64) ([]byte, error) { return a.MRSTraced(nil, pba) }

// MRSTraced is MRS with trace attribution.
func (a *Array) MRSTraced(task *trace.Task, pba uint64) ([]byte, error) {
	if err := a.checkRange(pba, 1); err != nil {
		return nil, err
	}
	m, lpba, _, _ := a.locate(pba)
	if !a.Failed(m) {
		buf, err := a.members[m].MRSTraced(task, lpba)
		if err == nil {
			a.syncClock()
			return buf, nil
		}
		if a.p == 0 {
			a.syncClock()
			return nil, err
		}
	}
	buf, err := a.reconstructBlock(task, m, lpba)
	a.syncClock()
	return buf, err
}

// WriteBlocks writes a contiguous global run, splitting it at stripe
// boundaries.
func (a *Array) WriteBlocks(start uint64, blocks [][]byte) error {
	return a.WriteBlocksTraced(nil, start, blocks)
}

// WriteBlocksTraced is WriteBlocks with trace attribution. A run that
// spans members commits per member (each sub-run atomic on its sled);
// runs within one stripe unit keep the raw device's whole-run
// atomicity.
func (a *Array) WriteBlocksTraced(task *trace.Task, start uint64, blocks [][]byte) error {
	if err := a.checkRange(start, len(blocks)); err != nil {
		return err
	}
	if a.n == 1 {
		// Width 1 is the identity mapping: delegate the whole call so
		// the member sees the exact run (one settle, one stream) the
		// raw device would — byte-identical layout and virtual time.
		err := a.members[0].WriteBlocksTraced(task, start, blocks)
		a.syncClock()
		return err
	}
	err := a.writeSplit(task, start, blocks)
	if ferr := a.flushParity(task); err == nil {
		err = ferr
	}
	a.syncClock()
	return err
}

// writeSplit commits a global run member by member without flushing
// parity: sub-runs on failed members land in the mirror and parity
// only; the first member refusal stops the run.
func (a *Array) writeSplit(task *trace.Task, start uint64, blocks [][]byte) error {
	for _, mr := range a.splitRun(start, blocks) {
		if a.Failed(mr.member) {
			a.applyFailedRun(mr.member, mr.run)
			continue
		}
		if err := a.members[mr.member].WriteBlocksTraced(task, mr.run.Start, mr.run.Blocks); err != nil {
			return err
		}
	}
	return nil
}

// WriteRunsFanned commits independent write runs across members.
func (a *Array) WriteRunsFanned(runs []device.WriteRun, workers int) []error {
	return a.WriteRunsFannedTraced(nil, runs, workers)
}

// WriteRunsFannedTraced fans the runs twice: across members (distinct
// sleds overlap on their own clocks) and, per member, across its
// worker planes. Run order is preserved within each member, so the
// width-1 array delegates the exact call. A refused parity flush is
// reported on every run without an error of its own: none of them is
// covered until parity lands.
func (a *Array) WriteRunsFannedTraced(task *trace.Task, runs []device.WriteRun, workers int) []error {
	if a.n == 1 {
		// Identity mapping: the member must see the exact run list so
		// its worker-plane partition matches the raw device's.
		errs := a.members[0].WriteRunsFannedTraced(task, runs, workers)
		a.syncClock()
		return errs
	}
	errs := make([]error, len(runs))
	scatter(a, len(runs),
		func(i int, add func(int, device.WriteRun)) {
			if errs[i] = a.checkRange(runs[i].Start, len(runs[i].Blocks)); errs[i] != nil {
				return
			}
			for _, mr := range a.splitRun(runs[i].Start, runs[i].Blocks) {
				add(mr.member, mr.run)
			}
		},
		func(m int, idx []int, rs []device.WriteRun) {
			for k, err := range a.members[m].WriteRunsFannedTraced(task, rs, workers) {
				if errs[idx[k]] == nil {
					errs[idx[k]] = err
				}
			}
		},
		func(m, _ int, r device.WriteRun) { a.applyFailedRun(m, r) })
	if ferr := a.flushParity(task); ferr != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = ferr
			}
		}
	}
	a.syncClock()
	return errs
}

// ReadBlocksFanned reads the given global blocks, fanning per member
// and reconstructing unreadable blocks from parity.
func (a *Array) ReadBlocksFanned(pbas []uint64, workers int) ([][]byte, []error) {
	if a.n == 1 {
		bufs, errs := a.members[0].ReadBlocksFanned(pbas, workers)
		a.syncClock()
		return bufs, errs
	}
	bufs := make([][]byte, len(pbas))
	errs := make([]error, len(pbas))
	scatter(a, len(pbas),
		func(i int, add func(int, uint64)) {
			if errs[i] = a.checkRange(pbas[i], 1); errs[i] == nil {
				m, lpba, _, _ := a.locate(pbas[i])
				add(m, lpba)
			}
		},
		func(m int, idx []int, lp []uint64) {
			mbufs, merrs := a.members[m].ReadBlocksFanned(lp, workers)
			for k, i := range idx {
				bufs[i], errs[i] = mbufs[k], merrs[k]
				if errs[i] != nil && a.p > 0 {
					bufs[i], errs[i] = a.reconstructBlock(nil, m, lp[k])
				}
			}
		},
		func(m, i int, lpba uint64) { bufs[i], errs[i] = a.reconstructBlock(nil, m, lpba) })
	a.syncClock()
	return bufs, errs
}

// MoveGroups relocates groups of blocks (the cleaner's engine). The
// width-1 array delegates the whole call; wider arrays run each group
// through the global read/write paths so moves may cross members, with
// the raw device's prefix-completion semantics per group. A refused
// parity flush fails every group without an error of its own, with no
// move completed: none of the copies is covered until parity lands.
func (a *Array) MoveGroups(groups [][]device.BlockMove, workers int) []device.MoveResult {
	if a.n == 1 {
		res := a.members[0].MoveGroups(groups, workers)
		a.syncClock()
		return res
	}
	out := make([]device.MoveResult, len(groups))
	for gi, moves := range groups {
		out[gi] = a.moveGroup(moves)
	}
	if ferr := a.flushParity(nil); ferr != nil {
		for gi := range out {
			if out[gi].Err == nil {
				out[gi] = device.MoveResult{Err: ferr}
			}
		}
	}
	a.syncClock()
	return out
}

// moveGroup relocates one group, chunked by consecutive destinations
// exactly like the raw device's engine.
func (a *Array) moveGroup(moves []device.BlockMove) device.MoveResult {
	for i, j := range device.ConsecutiveRuns(len(moves), func(k int) uint64 { return moves[k].Dst }) {
		chunk := moves[i:j]
		bufs := make([][]byte, len(chunk))
		for k, mv := range chunk {
			buf, err := a.readForMove(mv.Src)
			if err != nil {
				return device.MoveResult{Completed: i, Err: err}
			}
			bufs[k] = buf
		}
		if err := a.writeForMove(chunk[0].Dst, bufs); err != nil {
			return device.MoveResult{Completed: i, Err: err}
		}
	}
	return device.MoveResult{Completed: len(moves)}
}

// readForMove reads one global block for relocation (degrading to
// reconstruction when needed).
func (a *Array) readForMove(g uint64) ([]byte, error) {
	if err := a.checkRange(g, 1); err != nil {
		return nil, err
	}
	m, lpba, _, _ := a.locate(g)
	if a.Failed(m) {
		return a.reconstructBlock(nil, m, lpba)
	}
	buf, err := a.members[m].MRS(lpba)
	if err != nil && a.p > 0 {
		return a.reconstructBlock(nil, m, lpba)
	}
	return buf, err
}

// writeForMove commits one destination run through the split path
// without flushing parity (the caller batches the flush).
func (a *Array) writeForMove(start uint64, blocks [][]byte) error {
	if err := a.checkRange(start, len(blocks)); err != nil {
		return err
	}
	return a.writeSplit(nil, start, blocks)
}

// ---------------------------------------------------------------------
// Lines.

// lineSpan validates that the global line [g, g+2^logN) sits inside
// one stripe unit and returns its member placement.
func (a *Array) lineSpan(g uint64, logN uint8) (m int, lpba uint64, err error) {
	n := uint64(1) << logN
	if err := a.checkRange(g, int(n)); err != nil {
		return 0, 0, err
	}
	if int(n) > a.su || g%n != 0 {
		return 0, 0, fmt.Errorf("%w: line [%d,%d) vs stripe unit %d", ErrNotStripable, g, g+n, a.su)
	}
	m, lpba, _, _ = a.locate(g)
	return m, lpba, nil
}

// WriteLineBatch writes a future heated line's member blocks. On a
// failed member the payloads land in the mirror and parity only; the
// line becomes heatable after the member is repaired.
func (a *Array) WriteLineBatch(start uint64, logN uint8, blocks [][]byte) error {
	m, lpba, err := a.lineSpan(start, logN)
	if err != nil {
		return err
	}
	if a.Failed(m) {
		n := uint64(1) << logN
		zero := make([]byte, device.DataBytes)
		for i := uint64(0); i < n-1; i++ {
			b := zero
			if int(i) < len(blocks) {
				b = blocks[i]
			}
			a.applyFailedWrite(m, lpba+1+i, b)
		}
	} else {
		err = a.members[m].WriteLineBatch(lpba, logN, blocks)
	}
	if ferr := a.flushParity(nil); err == nil {
		err = ferr
	}
	a.syncClock()
	return err
}

// HeatLine freezes the line at global start. The heat record the
// member writes binds member-local addresses (LineInfo.Start is
// translated back to the global space; Record stays the wire truth).
func (a *Array) HeatLine(start uint64, logN uint8) (device.LineInfo, error) {
	m, lpba, err := a.lineSpan(start, logN)
	if err != nil {
		return device.LineInfo{}, err
	}
	if a.Failed(m) {
		return device.LineInfo{}, fmt.Errorf("%w: member %d holds line %d", ErrMemberFailed, m, start)
	}
	li, herr := a.members[m].HeatLine(lpba, logN)
	if herr != nil {
		a.syncClock()
		return device.LineInfo{}, herr
	}
	a.mu.Lock()
	a.lines[start] = lineEntry{member: m, local: lpba, logN: logN}
	a.mu.Unlock()
	a.syncClock()
	li.Start = start
	return li, nil
}

// translateReport maps a member verify report to global addresses.
func (a *Array) translateReport(m int, rep device.VerifyReport) device.VerifyReport {
	if g, ok := a.globalOf(m, rep.Line.Start); ok {
		rep.Line.Start = g
	}
	for i, pba := range rep.ReadErrors {
		if g, ok := a.globalOf(m, pba); ok {
			rep.ReadErrors[i] = g
		}
	}
	return rep
}

// VerifyLine checks the heated line at global start.
func (a *Array) VerifyLine(start uint64) (device.VerifyReport, error) {
	m, lpba, _, err := a.lineAt(start)
	if err != nil {
		return device.VerifyReport{}, err
	}
	if a.Failed(m) {
		return device.VerifyReport{}, fmt.Errorf("%w: member %d holds line %d", ErrMemberFailed, m, start)
	}
	rep, verr := a.members[m].VerifyLine(lpba)
	a.syncClock()
	return a.translateReport(m, rep), verr
}

// VerifyLineOffClock verifies on a shadow plane (off the foreground
// clock) — the incremental auditor's contract.
func (a *Array) VerifyLineOffClock(start uint64) (device.VerifyReport, time.Duration, error) {
	m, lpba, _, err := a.lineAt(start)
	if err != nil {
		return device.VerifyReport{}, 0, err
	}
	if a.Failed(m) {
		return device.VerifyReport{}, 0, fmt.Errorf("%w: member %d holds line %d", ErrMemberFailed, m, start)
	}
	rep, shadow, verr := a.members[m].VerifyLineOffClock(lpba)
	return a.translateReport(m, rep), shadow, verr
}

// lineAt resolves a global line start to its member placement, via
// the registry or (for lines recovered by member scans) the mapping.
func (a *Array) lineAt(start uint64) (int, uint64, lineEntry, error) {
	a.mu.Lock()
	entry, ok := a.lines[start]
	a.mu.Unlock()
	if ok {
		return entry.member, entry.local, entry, nil
	}
	if err := a.checkRange(start, 1); err != nil {
		return 0, 0, lineEntry{}, err
	}
	m, lpba, _, _ := a.locate(start)
	return m, lpba, lineEntry{member: m, local: lpba}, nil
}

// VerifyLines fans verification per member (each member fans further
// over its worker planes), preserving input order in the outcomes.
func (a *Array) VerifyLines(starts []uint64, workers int) []device.VerifyOutcome {
	out := make([]device.VerifyOutcome, len(starts))
	scatter(a, len(starts),
		func(i int, add func(int, uint64)) {
			m, lpba, _, err := a.lineAt(starts[i])
			if err != nil {
				out[i].Err = err
				return
			}
			add(m, lpba)
		},
		func(m int, idx []int, lp []uint64) {
			for k, oc := range a.members[m].VerifyLines(lp, workers) {
				oc.Report = a.translateReport(m, oc.Report)
				out[idx[k]] = oc
			}
		},
		func(m, i int, _ uint64) {
			out[i].Err = fmt.Errorf("%w: member %d holds line %d", ErrMemberFailed, m, starts[i])
		})
	a.syncClock()
	return out
}

// Lines returns the array's heated lines in global address order.
// Lines on failed members are reported from the registry (zero-valued
// records): the evidence is temporarily unreadable, not forgotten.
func (a *Array) Lines() []device.LineInfo {
	var out []device.LineInfo
	seen := make(map[uint64]bool)
	for m, dev := range a.members {
		if a.Failed(m) {
			continue
		}
		for _, li := range dev.Lines() {
			if g, ok := a.globalOf(m, li.Start); ok {
				li.Start = g
				out = append(out, li)
				seen[g] = true
			}
		}
	}
	a.mu.Lock()
	for g, e := range a.lines {
		if !seen[g] && a.failed[e.member] {
			out = append(out, device.LineInfo{Start: g, LogN: e.logN})
		}
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ScanFinding is a per-member anomaly a whole-array scan surfaced that
// has no global address (evidence on parity territory).
type ScanFinding struct {
	// Member is the member device the evidence was found on.
	Member int
	// Local is the member-local block address of the evidence.
	Local uint64
	// Kind names the anomaly: "line-on-parity-territory" or
	// "unparseable-on-parity-territory".
	Kind string
}

// Scan recovers the heated-line registry from every live member's
// medium. Data-territory lines translate to global addresses;
// electrical evidence on parity territory is reported per member via
// ScanFindings. Lines previously registered on failed members are
// retained (their media are unreadable until repair, their existence
// is host knowledge worth keeping).
func (a *Array) Scan() (recovered []device.LineInfo, unparseable []uint64, err error) {
	newLines := make(map[uint64]lineEntry)
	var findings []ScanFinding
	for m, dev := range a.members {
		if a.Failed(m) {
			continue
		}
		rec, unp, serr := dev.Scan()
		if serr != nil {
			return nil, nil, fmt.Errorf("array: scanning member %d: %w", m, serr)
		}
		for _, li := range rec {
			if g, ok := a.globalOf(m, li.Start); ok {
				local := li.Start
				li.Start = g
				recovered = append(recovered, li)
				newLines[g] = lineEntry{member: m, local: local, logN: li.LogN}
			} else {
				findings = append(findings, ScanFinding{Member: m, Local: li.Start, Kind: "line-on-parity-territory"})
			}
		}
		for _, pba := range unp {
			if g, ok := a.globalOf(m, pba); ok {
				unparseable = append(unparseable, g)
			} else {
				findings = append(findings, ScanFinding{Member: m, Local: pba, Kind: "unparseable-on-parity-territory"})
			}
		}
	}
	a.mu.Lock()
	for g, e := range a.lines {
		if a.failed[e.member] {
			newLines[g] = e
			recovered = append(recovered, device.LineInfo{Start: g, LogN: e.logN})
		}
	}
	a.lines = newLines
	a.scanFindings = findings
	a.mu.Unlock()
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].Start < recovered[j].Start })
	sort.Slice(unparseable, func(i, j int) bool { return unparseable[i] < unparseable[j] })
	a.syncClock()
	return recovered, unparseable, nil
}

// ScanFindings returns the per-member anomalies of the last Scan.
func (a *Array) ScanFindings() []ScanFinding {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ScanFinding(nil), a.scanFindings...)
}

// ShredLine destroys the data of the heated line at global start —
// including its parity shadow, so the destruction is real: a shredded
// line is not reconstructable from the surviving members. The line's
// record remains the tombstone.
func (a *Array) ShredLine(start uint64) (device.ShredReport, error) {
	m, lpba, entry, err := a.lineAt(start)
	if err != nil {
		return device.ShredReport{}, err
	}
	if a.Failed(m) {
		return device.ShredReport{}, fmt.Errorf("%w: member %d holds line %d", ErrMemberFailed, m, start)
	}
	rep, serr := a.members[m].ShredLine(lpba)
	if serr != nil {
		a.syncClock()
		return rep, serr
	}
	// Scrub the parity shadow: fold a delta to zero for every data
	// block of the line, then drop the mirror copy. Reconstruction of
	// the shredded blocks now yields zeros, not the expired data.
	if a.p > 0 {
		n := uint64(1) << entry.logNOr(rep.Line.LogN)
		row := int(lpba / uint64(a.su))
		zero := make([]byte, device.DataBytes)
		a.mu.Lock()
		for i := lpba + 1; i < lpba+n; i++ {
			if a.mirror[m][i] != nil {
				a.applyDataWriteLocked(m, i, row, zero)
				a.mirror[m][i] = nil
			}
		}
		a.mu.Unlock()
		serr = a.flushParity(nil)
	}
	a.syncClock()
	rep.Line.Start = start
	return rep, serr
}

// logNOr returns the entry's logN, falling back to the report's.
func (e lineEntry) logNOr(logN uint8) uint8 {
	if e.logN != 0 {
		return e.logN
	}
	return logN
}

// SaveImage serialises every member's medium into one container
// (magic "SARR"), preserving the per-sled evidence separately — a
// forensic image of an array is the set of its sleds.
func (a *Array) SaveImage() []byte {
	imgs := make([][]byte, a.n)
	total := 0
	for m, dev := range a.members {
		imgs[m] = dev.SaveImage()
		total += len(imgs[m])
	}
	out := make([]byte, 0, 4+4+4+4+8*a.n+total)
	out = append(out, 'S', 'A', 'R', 'R')
	out = appendU32(out, uint32(a.n))
	out = appendU32(out, uint32(a.p))
	out = appendU32(out, uint32(a.su))
	for _, img := range imgs {
		out = appendU32(out, uint32(len(img)))
	}
	for _, img := range imgs {
		out = append(out, img...)
	}
	return out
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
