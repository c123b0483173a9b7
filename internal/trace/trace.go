// Package trace is the repository's virtual-time observability plane:
// a zero-dependency, allocation-bounded span and counter subsystem
// keyed on the simulated device clock (internal/sim), threaded through
// device → lfs → serve.
//
// Everything recorded here is *virtual* time — the same nanoseconds the
// latency model charges — so identical runs produce identical spans:
// a trace is a deterministic, regression-testable artifact, not a
// wall-clock profile. Emission never blocks and never advances any
// clock; with no tracer installed every instrumentation site reduces to
// one atomic nil-check, so disabled runs are byte-identical in virtual
// time to an untraced build.
//
// # Span taxonomy
//
// Device layer (Cat "device"): "settle" and "write" bracket each
// batched write command (one servo settle, then the streaming
// transfer; V1 = blocks in the command), "read" is one magnetic block
// read (V2 = PBA), and "*-fanout" spans cover a whole fan-out pass
// (start of launch to the slowest worker's join; V1 = worker planes).
// Worker-plane spans carry Track = worker index + 1; foreground work
// is Track 0. Private-plane timestamps are mapped onto the shared
// timeline by adding the fan-out's launch time, so a Perfetto view
// shows the planes as parallel tracks under the one virtual clock.
//
// LFS layer (Cat "lfs"): "sync-space", "sync-flush", "sync-journal",
// "sync-meta" phase the Sync path; "journal-record" is one summary
// record append (V1 = payload bytes); "checkpoint" is one full
// checkpoint write (V1 = blocks); "clean-plan" / "clean-copy" /
// "clean-commit" phase one cleaner round (plan's V1 = victims; copy's
// V1 = moves, V2 = the worker planes they were split over; commit's
// V1 = blocks committed, V2 = moves invalidated by concurrent writes);
// "clean-inline" is one last-resort inline pass, every round under
// the held lock (V1 = blocks copied);
// "mount-replay" (V1 = records, V2 = blocks replayed) and
// "mount-table" / "mount-walk" (V1 = table refs adopted or inodes
// read) phase a mount.
//
// Serve layer (Cat "serve"): one span per applied op, Name = the op
// kind, Session = the session id, V1 = the op's lock-wait ns and V2 =
// its own device-charge ns — the inputs of the queueing decomposition
// (queue = span duration − V1 − V2).
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span is one closed interval of virtual time. Spans are fixed-size
// values with statically allocated names, so emitting one allocates
// nothing.
type Span struct {
	// Name identifies the instrumented operation (see the package
	// comment for the taxonomy). Always a static string.
	Name string
	// Cat is the emitting layer: "device", "lfs" or "serve".
	Cat string
	// Track is the latency plane: 0 for foreground work, worker
	// index + 1 for a fan-out worker plane.
	Track int32
	// Session is the serving-tier session id, or -1 when the span is
	// not attributed to a session.
	Session int32
	// Start is the span's start on the shared virtual clock, in
	// nanoseconds. Worker-plane spans are pre-mapped onto the shared
	// timeline (fan-out launch time + private-plane offset).
	Start int64
	// Dur is the span's virtual duration in nanoseconds.
	Dur int64
	// V1 carries a name-specific value (block or worker counts,
	// lock-wait ns for serve spans); see the package comment.
	V1 int64
	// V2 carries a second name-specific value (PBA, invalidated
	// moves, device ns for serve spans); see the package comment.
	V2 int64
}

// DefaultBuffer is the span capacity used when a Tracer is built with
// a non-positive buffer size.
const DefaultBuffer = 1 << 16

// Tracer is a bounded, lock-free span buffer. Writers claim slots with
// one atomic increment and never block: once the buffer is full,
// further spans are counted in Dropped and discarded (the buffer keeps
// the *oldest* spans, so a truncated trace is a prefix, not a random
// sample). All methods are safe for concurrent use; Spans and Reset
// additionally require that no Emit is in flight (call them at
// quiescence, e.g. after a run completes).
type Tracer struct {
	spans   []Span
	next    atomic.Uint64
	dropped atomic.Uint64
}

// New builds a tracer holding at most buffer spans (DefaultBuffer when
// buffer <= 0).
func New(buffer int) *Tracer {
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	return &Tracer{spans: make([]Span, buffer)}
}

// Emit records one span. It never blocks: a full buffer increments the
// dropped counter instead. Emitting on a nil tracer is a no-op, which
// is the entire cost of a disabled instrumentation site.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	slot := t.next.Add(1) - 1
	if slot >= uint64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[slot] = s
}

// Dropped returns how many spans were discarded because the buffer was
// full. Safe on a nil tracer (0).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len returns the number of buffered spans. Safe on a nil tracer (0).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n > uint64(len(t.spans)) {
		n = uint64(len(t.spans))
	}
	return int(n)
}

// Spans returns a copy of the buffered spans in the canonical
// content-based order (SortSpans): because the order is a pure
// function of the span *contents*, two runs that perform the same
// virtual-time work return byte-identical streams regardless of which
// goroutine claimed which buffer slot first. Call at quiescence.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, t.Len())
	copy(out, t.spans[:len(out)])
	SortSpans(out)
	return out
}

// Reset discards all buffered spans and the dropped counter. Call at
// quiescence.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.next.Store(0)
	t.dropped.Store(0)
}

// SortSpans sorts spans into the canonical content-based total order:
// by Start, then Cat, Name, Track, Session, V1, V2, Dur. Every
// exporter sorts with this, so exported traces are deterministic for
// deterministic workloads.
func SortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool { return spanLess(&spans[i], &spans[j]) })
}

func spanLess(a, b *Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.Session != b.Session {
		return a.Session < b.Session
	}
	if a.V1 != b.V1 {
		return a.V1 < b.V1
	}
	if a.V2 != b.V2 {
		return a.V2 < b.V2
	}
	return a.Dur < b.Dur
}

// Task accumulates one operation's attribution counters while the
// operation threads through the stack: the virtual time it spent
// waiting for the FS metadata lock and the virtual time of its own
// device charges. The serving tier derives queueing time from them
// (shared-clock delta − lock-wait − own device time). All methods are
// atomic and nil-safe, so instrumented code passes tasks down
// unconditionally and untraced callers pass nil for free.
type Task struct {
	lockWait atomic.Int64
	device   atomic.Int64
}

// AddLockWait adds d to the task's lock-wait total. No-op on nil.
func (t *Task) AddLockWait(d time.Duration) {
	if t == nil {
		return
	}
	t.lockWait.Add(int64(d))
}

// AddDevice adds d to the task's own-device-time total. No-op on nil.
func (t *Task) AddDevice(d time.Duration) {
	if t == nil {
		return
	}
	t.device.Add(int64(d))
}

// LockWaitNS returns the accumulated lock-wait nanoseconds (0 on nil).
func (t *Task) LockWaitNS() int64 {
	if t == nil {
		return 0
	}
	return t.lockWait.Load()
}

// DeviceNS returns the accumulated own-device nanoseconds (0 on nil).
func (t *Task) DeviceNS() int64 {
	if t == nil {
		return 0
	}
	return t.device.Load()
}
