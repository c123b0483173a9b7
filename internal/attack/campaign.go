package attack

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/workload"
)

// The concurrent campaign: the §5 attack matrix run against a LIVE
// system — workload sessions applying a serving mix, the cooperative
// cleaner racing, incremental audit rounds sweeping — instead of the
// quiesced store the single-attack methods assume. The claims under
// test are the continuous-verification contract's:
//
//   - every tamper of a heated line is detected within the documented
//     bound of 2*ceil(L/batch) audit steps, counted from any point
//     after the tamper (two full rounds cover every line), and
//   - every acked write survives — live traffic racing the attacks,
//     the cleaner and the auditor never loses or corrupts data the FS
//     acknowledged.
//
// Attacks that quiesce the device (Scan) or destroy unrelated state
// (bulk erase, directory wipe, the forged-record coalesce that heats
// a free block the allocator may want) run as a destructive tail
// after the live phase joins, in the RunAll order.

// CampaignConfig configures RunLiveCampaign. The zero value is usable.
type CampaignConfig struct {
	// Sessions is the number of concurrent workload sessions (default
	// 2). Each applies an independently seeded serving mix on its own
	// namespace shard, then writes and syncs one tracked "acked" file.
	Sessions int
	// OpsPerSession is the mix length per session (default 256).
	OpsPerSession int
	// Files is the mix population ring per session (default 8).
	Files int
	// Seed derives every session's stream (default 1).
	Seed uint64
	// AuditBatch is the lines-per-step batch the audit rounds use
	// (default 2).
	AuditBatch int
	// CleanTarget, when positive, runs a goroutine driving cooperative
	// CleanStep rounds toward this many reclaimable segments for the
	// whole live phase — the race-clean ingredient (default 0: off).
	CleanTarget int
}

// CampaignReport is RunLiveCampaign's outcome.
type CampaignReport struct {
	// Live holds the attack results from the live phase, in run order.
	Live []Result
	// Destructive holds the quiesced destructive-tail results.
	Destructive []Result
	// OpsApplied totals workload ops applied across sessions.
	OpsApplied int
	// AckedFiles counts tracked acked files verified byte-identical
	// after the live phase joined.
	AckedFiles int
	// DetectionSteps is how many bounded-drive audit steps ran before
	// the victim's tampered line surfaced in the findings (0 when the
	// concurrent rounds had already caught it; -1 if it never did).
	DetectionSteps int
	// DetectionBound is the documented bound those steps must stay
	// within: 2*ceil(L/AuditBatch) for the final line population.
	DetectionBound int
	// FSStats snapshots the FS counters (audit counters included)
	// after the detection drive, before the destructive tail.
	FSStats lfs.Stats
}

// RunLiveCampaign runs the live phase — Sessions workload appliers,
// the optional racing cleaner, continuous audit rounds, and the
// non-destructive §5 attacks, all concurrently — then joins, verifies
// every acked write, drives audit rounds to the detection bound, and
// finishes with the destructive tail. The returned error reports the
// first infrastructure failure (a session that could not apply its
// ops, an acked file that did not survive); attack classification
// lives in the report.
func (h *Harness) RunLiveCampaign(cfg CampaignConfig) (CampaignReport, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 2
	}
	if cfg.OpsPerSession <= 0 {
		cfg.OpsPerSession = 256
	}
	if cfg.Files <= 0 {
		cfg.Files = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.AuditBatch <= 0 {
		cfg.AuditBatch = 2
	}
	fs := h.fs
	rep := CampaignReport{DetectionSteps: -1}

	// Live workload sessions, each ending with one tracked acked file.
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Sessions)
	applied := make([]int, cfg.Sessions)
	acked := make([][]byte, cfg.Sessions)
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mix := workload.DefaultMix(cfg.Files, cfg.OpsPerSession)
			mix.Prefix = fmt.Sprintf("cmp%d", i)
			mix.SyncEvery = 32
			ops := mix.Generate(sim.NewRNG(workload.SessionSeed(cfg.Seed, i)))
			n, err := workload.Apply(fs, ops)
			applied[i] = n
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			rng := sim.NewRNG(workload.SessionSeed(cfg.Seed, i) ^ 0xACED)
			content := make([]byte, 2*device.DataBytes)
			for j := range content {
				content[j] = byte(rng.Uint64())
			}
			name := fmt.Sprintf("acked-s%d", i)
			ino, err := fs.Create(name, uint8(i%4))
			if err == nil {
				err = fs.WriteFile(ino, content)
			}
			if err == nil {
				err = fs.Sync() // the ack
			}
			if err != nil {
				errs <- fmt.Errorf("session %d acked write: %w", i, err)
				return
			}
			acked[i] = content
		}(i)
	}

	// The racing cleaner: cooperative CleanStep rounds for the whole
	// live phase.
	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	if cfg.CleanTarget > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fs.CleanStep(cfg.CleanTarget)
				runtime.Gosched()
			}
		}()
	}

	// Continuous audit rounds racing everything above.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.AuditStep(cfg.AuditBatch)
			runtime.Gosched()
		}
	}()

	// The live, non-destructive attack sequence runs against the storm.
	rep.Live = []Result{
		h.AttackFSOverwrite(),
		h.AttackMWBHash(),
		h.AttackMWBData(),
		h.AttackEWBHash(),
		h.AttackEWBData(),
		h.AttackSplitFile(),
		h.AttackRm(),
	}

	wg.Wait()
	close(stop)
	bgWG.Wait()
	close(errs)
	var firstErr error
	for err := range errs {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, n := range applied {
		rep.OpsApplied += n
	}

	// Every acked write survives.
	for i, content := range acked {
		if content == nil {
			continue // session already reported its failure
		}
		name := fmt.Sprintf("acked-s%d", i)
		ino, err := fs.Lookup(name)
		var got []byte
		if err == nil {
			got, err = fs.ReadFile(ino)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("acked file %s lost: %w", name, err)
			}
			continue
		}
		if !bytes.Equal(got, content) {
			if firstErr == nil {
				firstErr = fmt.Errorf("acked file %s corrupted", name)
			}
			continue
		}
		rep.AckedFiles++
	}

	// Bounded detection drive: two full rounds over the final line
	// population must surface the victim tamper, wherever the round
	// cursor stopped.
	lines := len(fs.Device().Lines())
	if lines > 0 {
		rep.DetectionBound = 2 * ((lines + cfg.AuditBatch - 1) / cfg.AuditBatch)
	}
	if h.victimFound() {
		rep.DetectionSteps = 0
	} else {
		for step := 1; step <= rep.DetectionBound; step++ {
			fs.AuditStep(cfg.AuditBatch)
			if h.victimFound() {
				rep.DetectionSteps = step
				break
			}
		}
	}
	rep.FSStats = fs.Stats()

	// Destructive tail, quiesced.
	rep.Destructive = []Result{
		h.AttackCoalesce(),
		h.AttackCopyMask(),
		h.AttackClearDirectory(),
		h.AttackBulkErase(),
	}
	return rep, firstErr
}

// victimFound reports whether the auditor's findings include the
// victim's line.
func (h *Harness) victimFound() bool {
	for _, f := range h.fs.AuditFindings() {
		if f.Line.Start == h.line.Start {
			return true
		}
	}
	return false
}
