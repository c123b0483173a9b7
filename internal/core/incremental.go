package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sero/internal/device"
)

// The incremental audit engine: continuous background verification
// (ROADMAP "continuous verification under adversarial load"). Where
// Audit is a stop-the-world pass over every heated line, the
// IncrementalAuditor verifies the same population a few lines at a
// time, taking the striped region locks only for the line under check,
// so verification coexists with live traffic and background cleaning.
//
// Round contract: a *round* is a snapshot of the heated-line
// population, taken when the previous round's worklist drains. Every
// line in the snapshot is verified exactly once per round; lines
// heated after the snapshot join the next round. With L lines and a
// step batch of b, a round completes in ceil(L/b) steps, so a tamper
// of an already-heated line is detected within at most
//
//	2 * ceil(L/b) steps
//
// — the tamper can land just after its line was checked this round
// (missing the rest of round r), but the full sweep of round r+1
// necessarily covers it. Piggyback hints (Observe) only *reorder* a
// round's remaining worklist, pulling recently read lines to the
// front; they never add or remove verifications, so the bound is
// unaffected and hot regions are simply checked earlier.
//
// Virtual-time contract: verification runs off-clock
// (device.VerifyLineOffClock) — audited and unaudited runs are
// byte-identical in virtual time, and the audit's cost is reported as
// shadow DeviceNS plus real wall-clock stripe-lock contention.

// IncrementalStats are the auditor's cumulative counters.
type IncrementalStats struct {
	// Rounds counts completed full sweeps of the heated-line
	// population.
	Rounds uint64
	// Steps counts Step calls that had at least one line to check.
	Steps uint64
	// LinesChecked counts line verifications performed.
	LinesChecked uint64
	// Findings counts verifications that reported tampering.
	Findings uint64
	// PiggybackHits counts lines whose check was reordered to the
	// front of a round by a read-observer hint.
	PiggybackHits uint64
	// Errors counts verifications that failed to run (distinct from
	// findings; a vanished line — coalesced or rescanned away — is
	// skipped silently and counts as neither).
	Errors uint64
	// Repairs counts findings the armed repairer healed (the repaired
	// line re-verified clean). Zero unless SetRepairer armed
	// self-healing.
	Repairs uint64
	// RepairFailures counts findings the repairer could not heal (the
	// repair call errored, or the line still verified tampered).
	RepairFailures uint64
	// DeviceNS is the shadow virtual time the checks would have cost
	// on the foreground clock (off-clock contract above).
	DeviceNS uint64
}

// StepReport describes one auditor step.
type StepReport struct {
	// Checked counts lines verified by this step.
	Checked int
	// Repaired counts this step's findings the armed repairer healed.
	Repaired int
	// Findings holds the tampered-line reports this step surfaced.
	Findings []device.VerifyReport
	// RoundComplete reports whether this step drained the current
	// round's worklist.
	RoundComplete bool
	// DeviceNS is this step's shadow device time.
	DeviceNS time.Duration
}

// lineRanges is an immutable snapshot of the current round's line
// extents, sorted by start, for lock-free PBA→line resolution on the
// read-observer path.
type lineRanges struct {
	starts []uint64
	ends   []uint64 // exclusive
}

// find returns the start of the line containing pba, or false.
func (lr *lineRanges) find(pba uint64) (uint64, bool) {
	i := sort.Search(len(lr.starts), func(i int) bool { return lr.ends[i] > pba })
	if i < len(lr.starts) && lr.starts[i] <= pba {
		return lr.starts[i], true
	}
	return 0, false
}

// IncrementalAuditor verifies a device's heated lines a few at a time
// in repeated rounds. Step and Observe are safe for concurrent use;
// Step itself is serialised internally, so callers may drive it from a
// background goroutine and inline from foreground paths at once.
type IncrementalAuditor struct {
	dev device.Dev

	// ranges is the round snapshot the lock-free Observe path reads.
	ranges atomic.Pointer[lineRanges]

	mu        sync.Mutex
	started   bool            // a first round snapshot has been taken
	remaining []uint64        // this round's unchecked line starts, queue order
	pending   map[uint64]bool // membership for remaining
	hints     []uint64        // observed lines to check first (subset of pending)
	hinted    map[uint64]bool // dedup for hints within the round
	busy      map[uint64]bool // lines a Step is checking or repairing now
	idle      sync.Cond       // signalled (on mu) when a line leaves busy
	repairer  Repairer
	stats     IncrementalStats
	findings  []device.VerifyReport
}

// Repairer heals one tampered heated line in place, given its (device
// address space) start, and returns the fresh line info. The striped
// array's RepairLine — reconstruct the true payloads from parity,
// splice fresh media, rewrite, re-heat — is the canonical
// implementation.
type Repairer func(start uint64) (device.LineInfo, error)

// SetRepairer arms self-healing: from now on every tamper finding is
// handed to fn, and the line is re-verified afterwards to confirm the
// heal (Stats.Repairs vs Stats.RepairFailures). The finding is still
// recorded either way — a healed tamper remains evidence. Repairs run
// on the foreground clock (they are real service actions, unlike the
// off-clock checks). Pass nil to disarm.
func (a *IncrementalAuditor) SetRepairer(fn Repairer) {
	a.mu.Lock()
	a.repairer = fn
	a.mu.Unlock()
}

// NewIncrementalAuditor builds an auditor over dev. It does not
// install any observer; call dev.SetReadObserver(a.Observe) to enable
// piggyback hints.
func NewIncrementalAuditor(dev device.Dev) *IncrementalAuditor {
	a := &IncrementalAuditor{
		dev:     dev,
		pending: make(map[uint64]bool),
		hinted:  make(map[uint64]bool),
		busy:    make(map[uint64]bool),
	}
	a.idle.L = &a.mu
	return a
}

// Observe notes that block pba was just read from the medium. If the
// block belongs to a heated line still unchecked this round, the line
// is pulled to the front of the round's worklist — the piggyback: the
// cleaner (or any reader) touching a region makes it cheap and timely
// to re-verify. Hot path: one atomic load and a binary search when the
// block is in no pending line; the mutex is taken only on a hit.
// Suitable as a device.ReadObserver.
func (a *IncrementalAuditor) Observe(pba uint64) {
	lr := a.ranges.Load()
	if lr == nil {
		return
	}
	start, ok := lr.find(pba)
	if !ok {
		return
	}
	a.mu.Lock()
	if a.pending[start] && !a.hinted[start] {
		a.hinted[start] = true
		a.hints = append(a.hints, start)
		a.stats.PiggybackHits++
	}
	a.mu.Unlock()
}

// Step verifies up to batch lines (batch <= 0 means 1) from the
// current round, starting a new round if the previous one has drained.
// Hinted lines are checked first. The heavy work — the hash checks and
// any repair — runs outside the auditor's mutex; only worklist
// bookkeeping holds it. A line another Step is still checking or
// repairing is waited for, never checked twice at once, and a check's
// finding is published together with its repair outcome, so a reader
// never sees a finding whose repair is still running. Returns the
// step's report; Checked == 0 means the device has no heated lines at
// all.
func (a *IncrementalAuditor) Step(batch int) StepReport {
	if batch <= 0 {
		batch = 1
	}
	var rep StepReport
	for rep.Checked < batch {
		start, ok, roundEnded := a.next()
		if roundEnded {
			rep.RoundComplete = true
		}
		if !ok {
			break
		}
		a.mu.Lock()
		for a.busy[start] {
			a.idle.Wait()
		}
		a.busy[start] = true
		heal := a.repairer
		a.mu.Unlock()

		vr, shadow, err := a.dev.VerifyLineOffClock(start)
		tampered := err == nil && vr.Tampered()
		var healShadow time.Duration
		healed := false
		if tampered && heal != nil {
			if _, rerr := heal(start); rerr == nil {
				// Confirm: the healed line must verify clean.
				if vr2, sh2, err2 := a.dev.VerifyLineOffClock(start); err2 == nil && !vr2.Tampered() {
					healed = true
					healShadow = sh2
				}
			}
		}

		a.mu.Lock()
		delete(a.busy, start)
		a.idle.Broadcast()
		a.stats.LinesChecked++
		a.stats.DeviceNS += uint64(shadow)
		if err != nil && !errors.Is(err, device.ErrNotHeated) {
			// A line that exists but cannot be verified is
			// operationally suspect, but it is not a tamper finding;
			// count it separately.
			a.stats.Errors++
		}
		if tampered {
			a.stats.Findings++
			a.findings = append(a.findings, vr)
			rep.Findings = append(rep.Findings, vr)
			switch {
			case heal == nil:
			case healed:
				a.stats.Repairs++
				rep.Repaired++
			default:
				a.stats.RepairFailures++
			}
		}
		a.mu.Unlock()
		if err != nil {
			continue
		}
		rep.Checked++
		rep.DeviceNS += shadow + healShadow
	}
	if rep.Checked > 0 {
		a.mu.Lock()
		a.stats.Steps++
		a.mu.Unlock()
	}
	return rep
}

// next pops the next line start to verify: hinted lines first, then
// queue order. When the round has drained it snapshots a fresh one and
// reports roundEnded. ok is false only when the device has no heated
// lines.
func (a *IncrementalAuditor) next() (start uint64, ok bool, roundEnded bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		// Hints first: each is a pending line pulled to the front.
		for len(a.hints) > 0 {
			h := a.hints[0]
			a.hints = a.hints[1:]
			if a.pending[h] {
				delete(a.pending, h)
				return h, true, roundEnded
			}
		}
		for len(a.remaining) > 0 {
			s := a.remaining[0]
			a.remaining = a.remaining[1:]
			if a.pending[s] {
				delete(a.pending, s)
				return s, true, roundEnded
			}
		}
		// Round drained: snapshot the next one. The very first
		// non-empty snapshot arms the auditor rather than completing
		// anything, and an empty population never completes rounds —
		// there is nothing to sweep.
		if a.started {
			a.stats.Rounds++
			roundEnded = true
		}
		lines := a.dev.Lines() // sorted by start
		if len(lines) == 0 {
			a.started = false
			a.ranges.Store(&lineRanges{})
			return 0, false, roundEnded
		}
		a.started = true
		lr := &lineRanges{
			starts: make([]uint64, len(lines)),
			ends:   make([]uint64, len(lines)),
		}
		a.remaining = make([]uint64, len(lines))
		for i, li := range lines {
			lr.starts[i] = li.Start
			lr.ends[i] = li.End()
			a.remaining[i] = li.Start
			a.pending[li.Start] = true
		}
		a.hinted = make(map[uint64]bool)
		a.hints = a.hints[:0]
		a.ranges.Store(lr)
	}
}

// Stats returns a copy of the cumulative counters.
func (a *IncrementalAuditor) Stats() IncrementalStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Findings returns the tampered-line reports accumulated so far, in
// detection order.
func (a *IncrementalAuditor) Findings() []device.VerifyReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]device.VerifyReport(nil), a.findings...)
}
