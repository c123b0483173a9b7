package lfs

import (
	"sero/internal/core"
	"sero/internal/device"
)

// Continuous background verification. With Params.AuditEvery > 0 the
// FS runs the core incremental auditor as a background service, the
// way CleanWatermark runs the cleaner: every AuditEvery blocks
// appended to the log kick one audit step, so verification bandwidth
// tracks write bandwidth and an idle FS audits nothing. Embedders that
// want to drive the cadence themselves (latency-critical loops, test
// harnesses, serofsck -online) call AuditStep directly — the engine is
// shared, so inline steps and background steps advance the same
// rounds.
//
// The round and detection-latency contract is the core engine's (see
// core/incremental.go): with L heated lines and a step batch of b, a
// tamper of an already-heated line is detected within at most
// 2*ceil(L/b) steps. The auditor registers itself as the device's
// read observer, so blocks the cleaner (or any reader) pulls off the
// medium reorder the current round's worklist toward recently touched
// regions — piggybacked checks that never change the bound.
//
// Audit runs off the foreground clock (device.VerifyLineOffClock):
// audited and unaudited runs are byte-identical in virtual time, and
// the checks' would-be cost is reported as Stats.AuditDeviceNS. The
// real cost a live system pays is wall-clock stripe-lock contention,
// which the serving benchmarks measure.

// auditBatchLines is the default number of lines one background audit
// step verifies (mirrors cleanBatchSegments: small enough that a step
// never hogs a region, large enough to make round progress).
const auditBatchLines = 4

// AuditStats describes one incremental audit step (re-exported core
// engine report: lines checked, tamper findings, round completion and
// shadow device time).
type AuditStats = core.StepReport

// ensureAuditorLocked lazily builds the incremental audit engine and
// installs it as the device's read observer. Caller holds fs.mu
// exclusively.
func (fs *FS) ensureAuditorLocked() *core.IncrementalAuditor {
	if fs.auditor == nil {
		fs.auditor = core.NewIncrementalAuditor(fs.dev)
		fs.dev.SetReadObserver(fs.auditor.Observe)
	}
	return fs.auditor
}

// AuditStep runs one incremental audit step: up to batch heated lines
// (batch <= 0 means the auditBatchLines default) are verified, each
// under only its own stripe locks and off the foreground clock, with
// hinted (recently read) lines first. It is the cooperative form of
// the background auditor, mirroring CleanStep: call it from idle
// moments to spread continuous verification across the timeline the
// embedder controls. Safe for concurrent use with all FS operations
// and with the background auditor — all callers advance one shared
// round sequence.
//
// more is false when the device currently has no heated lines (the
// step had nothing to verify); the natural drive-a-full-round loop is
// `for { if st, more := fs.AuditStep(b); !more || st.RoundComplete {
// break } }`.
func (fs *FS) AuditStep(batch int) (AuditStats, bool) {
	if batch <= 0 {
		batch = auditBatchLines
	}
	fs.mu.Lock()
	aud := fs.ensureAuditorLocked()
	fs.mu.Unlock()

	tr := fs.dev.Tracer()
	t0 := fs.now()
	rep := aud.Step(batch)
	if rep.Checked > 0 {
		fs.emitSpan(tr, "audit-step", t0, int64(rep.Checked), int64(rep.DeviceNS))
	}
	if rep.RoundComplete {
		as := aud.Stats()
		fs.emitSpan(tr, "audit-round", t0, int64(as.Rounds), int64(as.Findings))
	}
	return rep, rep.Checked > 0
}

// SetAuditRepairer arms self-healing on the incremental auditor: every
// tamper finding is handed to fn (typically the striped array's
// RepairLine — reconstruct the true line from cross-device parity and
// splice it back), then re-verified to confirm the heal. The finding
// is still recorded either way; Stats.AuditRepairs and
// Stats.AuditRepairFailures count the outcomes. Pass nil to disarm.
func (fs *FS) SetAuditRepairer(fn core.Repairer) {
	fs.mu.Lock()
	aud := fs.ensureAuditorLocked()
	fs.mu.Unlock()
	aud.SetRepairer(fn)
}

// AuditFindings returns the tampered-line reports the incremental
// auditor has accumulated, in detection order (nil when no auditor has
// run or nothing was found).
func (fs *FS) AuditFindings() []device.VerifyReport {
	fs.mu.RLock()
	aud := fs.auditor
	fs.mu.RUnlock()
	if aud == nil {
		return nil
	}
	return aud.Findings()
}

// kickAuditorLocked arms (on first use) and wakes the background
// auditor, which runs one audit step per wake — the AuditEvery
// cadence's kick point, called from appendBlock. Caller holds fs.mu
// exclusively. A no-op when the policy is off or the FS is closed;
// coalesced kicks only slow the cadence, never the documented step
// bound.
func (fs *FS) kickAuditorLocked() {
	if fs.p.AuditEvery <= 0 || fs.closed {
		return
	}
	fs.ensureAuditorLocked()
	fs.bgAudit.kickLocked(func(<-chan struct{}) { fs.AuditStep(auditBatchLines) })
}
