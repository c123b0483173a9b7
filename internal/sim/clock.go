// Package sim provides the deterministic virtual clock and the seeded
// RNG. Nothing in the repository measures wall time; every latency
// figure is derived from this virtual clock so experiments are exactly
// reproducible.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual nanosecond counter. The zero value is a clock at
// time zero, ready to use. Clock is safe for concurrent use: Advance
// is an atomic add, so concurrent clients each charge their own
// latency and the clock accumulates total device work (the serialised
// equivalent). Components that want parallel-hardware semantics run
// workers against private clocks and advance a shared clock by the
// maximum per-worker elapsed time — see the device's verification
// engine.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time since the start of the
// simulation.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves the clock forward by d. Advance panics if d is
// negative: virtual time never runs backwards, and a negative advance
// always indicates a latency-model bug rather than a recoverable
// condition.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now.Add(int64(d))
}

// Reset rewinds the clock to zero. Intended for reusing one device
// across benchmark iterations.
func (c *Clock) Reset() { c.now.Store(0) }

// AdvanceTo raises the clock to t if it is currently behind it; a t at
// or before the current reading is a no-op. This is the slowest-worker
// join for composites that keep one clock per member device and expose
// the maximum as their own time: after an operation fans across
// members, the composite raises its shared clock to the furthest
// member clock. The raise is a CAS loop, so concurrent AdvanceTo and
// Advance calls never move the clock backwards.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Stopwatch measures an interval of virtual time.
type Stopwatch struct {
	clock *Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch on c.
func NewStopwatch(c *Clock) Stopwatch {
	return Stopwatch{clock: c, start: c.Now()}
}

// Elapsed returns the virtual time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return s.clock.Now() - s.start }
