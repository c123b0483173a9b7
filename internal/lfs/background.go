package lfs

// The background cleaner. With Params.CleanWatermark > 0, cleaning is
// a background activity: the first time the append path sees the free
// pool at or below the watermark it arms a cleaner goroutine, and from
// then on every such dip kicks it. The goroutine runs phased passes
// (plan under fs.mu, copy off it, commit under it — see cleaner.go)
// until the reclaimable pool is back above the watermark, so the
// foreground thread that used to pay for a whole pass inline now pays
// at most the brief plan/commit windows.
//
// The background cleaner never checkpoints: segments it empties sit
// gated in SegFreeing until the next covering point a *foreground*
// operation writes (a Sync's summary record, a policy checkpoint, an
// explicit Clean). A checkpoint taken at an arbitrary background
// moment would persist namespace changes the application has not
// acked, weakening the crash contract; riding the existing covering
// points keeps "every mounted state is an acked state" intact. The
// watermark is therefore a target on *reclaimable* segments — the
// cleaner's half of the bargain — while conversion to allocatable
// rides the sync path, exactly as it does for inline cleaning.

// bgLoop is the lifecycle the background services share: a goroutine
// started on the first kick, woken by at most one pending kick (extra
// kicks coalesce, which is all a level-triggered service needs), and
// retired by Close, which waits for the run in flight. Its fields are
// nil until the first kick and are read and written under fs.mu; the
// goroutine holds its own copies, so Close can read them without
// racing it.
type bgLoop struct {
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// kickLocked starts the loop on first use and wakes it; every wake
// calls the run given on that first kick once, passing the stop
// channel so a long run can return early. Caller holds fs.mu
// exclusively.
func (l *bgLoop) kickLocked(run func(stop <-chan struct{})) {
	if l.kick == nil {
		kick, stop, done := make(chan struct{}, 1), make(chan struct{}), make(chan struct{})
		l.kick, l.stop, l.done = kick, stop, done
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				case <-kick:
				}
				run(stop)
			}
		}()
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// halt stops a started loop — closing its stop channel only when
// first, so concurrent Closes close it once — and waits for it to
// exit. A never-started loop is a no-op.
func (l bgLoop) halt(first bool) {
	if l.stop == nil {
		return
	}
	if first {
		close(l.stop)
	}
	<-l.done
}

// kickCleanerLocked arms (on first use) and wakes the background
// cleaner. Caller holds fs.mu exclusively. A no-op when the watermark
// policy is off or the FS is closed.
func (fs *FS) kickCleanerLocked() {
	if fs.p.CleanWatermark <= 0 || fs.closed {
		return
	}
	fs.bgClean.kickLocked(fs.cleanToWatermark)
}

// cleanToWatermark is one wake of the background cleaner: it runs
// phased cleaning passes until the reclaimable pool is back above the
// watermark, no pass makes progress (nothing cleanable right now, or a
// foreground pass owns the cleaner), or stop closes.
func (fs *FS) cleanToWatermark(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		fs.mu.Lock()
		wm := fs.p.CleanWatermark
		before := fs.sm.reclaimable()
		fs.mu.Unlock()
		if before >= wm {
			return
		}
		cs := fs.cleanPhased(wm)
		fs.mu.Lock()
		if cs.SegmentsCleaned > 0 || cs.BlocksCopied > 0 {
			fs.stats.CleanerBgRuns++
		}
		progressed := fs.sm.reclaimable() > before
		fs.mu.Unlock()
		if !progressed {
			// No net gain: nothing cleanable at current utilisation,
			// a foreground pass holds the cleaner, or the pass's own
			// appends ate what it freed. Park rather than spin — the
			// next allocation dip re-kicks us. (Judging progress by
			// gross segments freed would livelock here: near capacity
			// a pass can keep freeing victims while netting zero.)
			return
		}
	}
}

// Close stops the background cleaner and the background auditor,
// waiting for any in-flight pass to commit. It does not sync: call
// Sync (or Checkpoint) first if buffered data must be durable. The FS
// remains usable after Close — foreground operations, explicit Clean
// and AuditStep keep working; only the watermark and audit-cadence
// policies are retired. Close is idempotent and safe to call
// concurrently with foreground operations.
func (fs *FS) Close() error {
	fs.mu.Lock()
	first := !fs.closed
	fs.closed = true
	loops := []bgLoop{fs.bgClean, fs.bgAudit}
	fs.mu.Unlock()
	// Every Close waits: a second concurrent Close must not return
	// while the goroutines the first one is stopping still issue
	// device writes.
	for _, l := range loops {
		l.halt(first)
	}
	return nil
}
