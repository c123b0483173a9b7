package array

import (
	"fmt"
	"sort"
	"time"

	"sero/internal/device"
)

// Self-healing. Two service actions, two scopes:
//
//   - RepairMember replaces an entire lost sled: a factory-fresh
//     device is commissioned with the dead member's geometry, every
//     block the array ever committed there is reconstructed from the
//     survivors via parity and rewritten, and every heated line the
//     member carried is re-heated so its record is re-established on
//     the new dots (the hash binds (PBA‖data), so intact data
//     reproduces the original hash).
//
//   - RepairLine replaces one tampered heated line on a *live*
//     member: the line's true payloads are reconstructed treating
//     that member as an erasure, and device.ReplaceLine splices fresh
//     media, rewrites and re-heats. This is the repair arm the
//     incremental auditor drives when a background verify finds a
//     tampered line.
//
// Both actions are charged honestly: reconstruction reads land on the
// survivors' clocks, rewrites and re-heats on the repaired member's
// clock (raised to the array's present first — a spare commissioned
// at time T starts working at T, not in the past).

// FailMember marks member m lost: no further I/O is issued to it,
// reads of its blocks reconstruct from parity, and writes directed at
// it land in the parity shadow only (zero acked-write loss while
// degraded). Failing more members than there is parity is allowed —
// the array is then partially unreadable until repairs — but each
// call reports the coverage state.
func (a *Array) FailMember(m int) error {
	if m < 0 || m >= a.n {
		return fmt.Errorf("%w: member %d of %d", ErrGeometry, m, a.n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed[m] {
		return nil
	}
	a.failed[m] = true
	down := 0
	for _, f := range a.failed {
		if f {
			down++
		}
	}
	if down > a.p {
		return fmt.Errorf("%w: %d members down, %d parity", ErrTooManyFailures, down, a.p)
	}
	return nil
}

// Failed reports whether member m is marked lost.
func (a *Array) Failed(m int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return m >= 0 && m < a.n && a.failed[m]
}

// RepairMember commissions a fresh sled for failed member m and
// rebuilds it: every block the array committed on m is reconstructed
// from the survivors and rewritten, then every heated line m carried
// is re-heated. On return the member is live and fully covered again.
func (a *Array) RepairMember(m int) error {
	if m < 0 || m >= a.n {
		return fmt.Errorf("%w: member %d of %d", ErrGeometry, m, a.n)
	}
	a.mu.Lock()
	if !a.failed[m] {
		a.mu.Unlock()
		return fmt.Errorf("array: member %d is not failed", m)
	}
	// Snapshot the rebuild worklist: which blocks were committed, and
	// which of them are parity territory (rebuilt from the parity
	// mirror — which *is* the recomputation over all committed data).
	var lpbas []uint64
	parityVals := make(map[uint64][]byte)
	for lpba, w := range a.written[m] {
		if !w {
			continue
		}
		l := uint64(lpba)
		lpbas = append(lpbas, l)
		row := int(l / uint64(a.su))
		if _, isP := a.parityMember(row, m); isP {
			parityVals[l] = append([]byte(nil), a.mirror[m][l]...)
		}
	}
	a.mu.Unlock()
	// The lines to re-heat are in the lost sled's own registry, which
	// outlives its media.
	heats := a.memberLines(m)

	// Reconstruct. Data blocks come from the survivors through the
	// erasure decoder (m is marked failed, so it is never read); parity
	// blocks come from the parity mirror.
	vals := make(map[uint64][]byte, len(lpbas))
	for _, lpba := range lpbas {
		if pv, ok := parityVals[lpba]; ok {
			vals[lpba] = pv
			continue
		}
		buf, err := a.reconstructBlock(m, lpba)
		if err != nil {
			return fmt.Errorf("array: rebuilding member %d block %d: %w", m, lpba, err)
		}
		vals[lpba] = buf
	}

	// Commission the spare only now, so a failed reconstruction leaves
	// the lost sled and its line registry in place for a retry: same
	// geometry, same trace tracks, the array's tracer and fan-out
	// width, clock raised to the array's present so the rebuild extends
	// the timeline instead of rewriting history. The rewrite lands
	// through the fresh member's fanned write path; its observer
	// re-folds each data block against an identical mirror value —
	// zero deltas, no parity churn.
	fresh := device.New(a.members[m].Params())
	fresh.SetTracer(a.Tracer())
	fresh.SetConcurrency(a.Concurrency())
	fresh.Clock().AdvanceTo(a.clock.Now())
	a.members[m] = fresh
	a.hookMember(m)
	sort.Slice(lpbas, func(i, j int) bool { return lpbas[i] < lpbas[j] })
	var runs []device.WriteRun
	for i, j := range device.ConsecutiveRuns(len(lpbas), func(k int) uint64 { return lpbas[k] }) {
		blocks := make([][]byte, j-i)
		for k := i; k < j; k++ {
			blocks[k-i] = vals[lpbas[k]]
		}
		runs = append(runs, device.WriteRun{Start: lpbas[i], Blocks: blocks})
	}
	for _, err := range fresh.WriteRunsFannedTraced(nil, runs, a.Concurrency()) {
		if err != nil {
			return fmt.Errorf("array: rebuild write on member %d refused: %w", m, err)
		}
	}

	// Re-establish the evidence: heat every line the member carried.
	for _, li := range heats {
		_, lpba, _, _ := a.locate(li.Start)
		if _, err := fresh.HeatLine(lpba, li.LogN); err != nil {
			return fmt.Errorf("array: re-heating line at member %d block %d: %w", m, lpba, err)
		}
	}

	a.mu.Lock()
	a.failed[m] = false
	a.cnt.repairedMember++
	a.mu.Unlock()
	a.syncClock(nil)
	return nil
}

// RepairLine rebuilds the heated line at global start on its (live)
// member: payloads are reconstructed treating the member as an
// erasure, then device.ReplaceLine splices fresh media, rewrites and
// re-heats. Returns the fresh line info (global addresses). This is
// the hook the incremental auditor's repair arm calls on a verify
// failure.
func (a *Array) RepairLine(start uint64) (device.LineInfo, error) {
	m, local, err := a.liveLine(start, 0)
	if err != nil {
		return device.LineInfo{}, err
	}
	lines := a.members[m].Lines()
	k := sort.Search(len(lines), func(k int) bool { return lines[k].Start >= local })
	if k == len(lines) || lines[k].Start != local {
		return device.LineInfo{}, fmt.Errorf("array: no heated line registered at %d", start)
	}
	line := lines[k]
	if a.p == 0 {
		return device.LineInfo{}, fmt.Errorf("%w: cannot reconstruct line %d", ErrTooManyFailures, start)
	}
	n := line.Blocks()
	payloads := make([][]byte, n-1)
	for i := uint64(0); i < n-1; i++ {
		lpba := local + 1 + i
		a.mu.Lock()
		committed := a.written[m][lpba]
		a.mu.Unlock()
		if !committed {
			continue // zero-filled by ReplaceLine
		}
		buf, err := a.reconstructBlock(m, lpba)
		if err != nil {
			return device.LineInfo{}, fmt.Errorf("array: reconstructing line %d block %d: %w", start, lpba, err)
		}
		payloads[i] = buf
	}
	li, err := a.members[m].ReplaceLine(local, line.LogN, payloads)
	if err != nil {
		a.syncClock(nil)
		return device.LineInfo{}, err
	}
	a.mu.Lock()
	a.cnt.repairedLines++
	a.mu.Unlock()
	err = a.flushParity()
	a.syncClock(nil)
	li.Start = start
	return li, err
}

// Stats is the array-level health and accounting snapshot (member
// OpStats aggregate separately via Dev.Stats).
type Stats struct {
	// Members is the member-device count N, parity members included.
	Members int
	// Parity is the number of parity members P.
	Parity int
	// StripeBlocks is the stripe unit in blocks.
	StripeBlocks int
	// Failed marks, per member, whether it is currently failed.
	Failed []bool
	// DegradedReads counts reads served via reconstruction.
	DegradedReads uint64
	// ReconstructedBlocks counts blocks rebuilt from parity (degraded
	// reads, member rebuilds and line repairs).
	ReconstructedBlocks uint64
	// ParityBlockWrites counts parity blocks flushed to members.
	ParityBlockWrites uint64
	// RepairedLines counts heated lines rebuilt in place by RepairLine.
	RepairedLines uint64
	// RepairedMembers counts whole members rebuilt by RepairMember.
	RepairedMembers uint64
	// MemberClocks are the per-member virtual timelines; the array
	// clock is their maximum.
	MemberClocks []time.Duration
}

// ArrayStats returns the array-level snapshot.
func (a *Array) ArrayStats() Stats {
	a.mu.Lock()
	s := Stats{
		Members:             a.n,
		Parity:              a.p,
		StripeBlocks:        a.su,
		Failed:              append([]bool(nil), a.failed...),
		DegradedReads:       a.cnt.degradedReads,
		ReconstructedBlocks: a.cnt.reconstructed,
		ParityBlockWrites:   a.cnt.parityWrites,
		RepairedLines:       a.cnt.repairedLines,
		RepairedMembers:     a.cnt.repairedMember,
	}
	a.mu.Unlock()
	s.MemberClocks = make([]time.Duration, a.n)
	for i, m := range a.members {
		s.MemberClocks[i] = m.Clock().Now()
	}
	return s
}
