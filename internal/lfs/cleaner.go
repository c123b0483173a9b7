package lfs

import (
	"slices"
	"sort"

	"sero/internal/device"
)

// The segment cleaner, following the cost-benefit policy of Rosenblum
// and Ousterhout [42], with the SERO refinement of §4.1: pinned
// segments (those containing heated lines) are never selected —
// "the garbage collector skips over heated segments, avoiding reading
// and writing them repeatedly, thus saving on disk bandwidth".
//
// A cleaning pass is a three-phase pipeline, and each phase has its
// own lock scope:
//
//  1. plan (fs.mu exclusive, brief): pick the K best victims by
//     cost-benefit score, clean-pin them, flush the active buffers,
//     and reserve a destination slot in the log for every live data
//     block, in log order — so the post-clean layout is a function of
//     the workload alone, never of the worker count;
//  2. copy (fs.mu RELEASED): relocate the round's live blocks on the
//     device's fanned-out move engine. The moves of every victim, in
//     plan order, are split into contiguous per-plane shares by the
//     rule the checkpoint slot and the at-rest flush use (planeShares:
//     at most Concurrency planes, one per started fanMinShare moves),
//     and each share's contiguous destinations commit as single
//     batched writes; the device clock advances by the *slowest
//     worker's* elapsed virtual time, the same contract as a
//     fanned-out Audit.
//     Foreground appends, reads and syncs proceed concurrently; a
//     foreground write that invalidates a block being moved only
//     flips liveness bookkeeping, which the commit phase detects;
//  3. commit (fs.mu exclusive, brief): re-validate every completed
//     move against the current owner table — moves whose source block
//     was overwritten, deleted or heat-relocated mid-copy are dropped
//     (their destination slot becomes dead space), the rest retarget
//     the owning inodes; each affected inode is rewritten once (not
//     once per copied block), emptied victims enter SegFreeing, and
//     the clean-pins come off.
//
// Every pass is a loop of cleanRoundLocked rounds, each running all
// three phases over one batch of victims, in one of two forms. A
// phased round (Clean, CleanStep, the background cleaner) releases
// fs.mu for the copy, emits a span per phase and takes at most
// cleanBatchSegments victims, re-scoring the remaining candidates
// between rounds. An inline round (cleanLocked) keeps fs.mu held —
// it is the fallback on the allocation paths, where the lock is
// already held, and the exclusive-lock baseline the benchmarks compare
// against — and takes the whole deficit as its batch; the inline pass
// emits one clean-inline span. Both forms are deterministic and
// worker-count-independent, but they need not produce byte-identical
// layouts for the same inputs, because their batches differ.
//
// Safety of the unlocked copy window rests on three invariants:
//   - source blocks live in SegFull victims, which no foreground path
//     writes to (liveness only ever transitions live→dead there);
//   - destination slots are reserved by bumping the active segment's
//     frontier, so concurrent appends land strictly behind them and
//     group-commit flushes never cover them;
//   - only one pass runs at a time (fs.cleaning, held true across the
//     unlocked window), so no other plan can pick the same victims or
//     reuse the same reservations.

// CleanStats summarises one cleaning pass.
type CleanStats struct {
	// SegmentsCleaned counts segments returned to the free pool.
	SegmentsCleaned int
	// BlocksCopied counts live blocks rewritten (the GC bandwidth
	// cost), including the one-per-inode rewrites of phase 3.
	BlocksCopied int
	// PinnedSkipped counts pinned segments that were candidates by
	// utilisation but were skipped.
	PinnedSkipped int
	// MovesInvalidated counts planned moves dropped at commit because
	// a concurrent foreground write invalidated the source block while
	// the copy phase ran off the lock. Always zero for the inline
	// (exclusive-lock) pass.
	MovesInvalidated int
	// Workers is the widest fan-out the copy phase ran at: the most
	// worker planes any round's moves were split over (0 when the
	// pass copied nothing).
	Workers int
	// Checkpointed reports that the pass ended with a checkpoint on
	// the medium (making the relocations durable and the emptied
	// segments reusable).
	Checkpointed bool
}

// cleanBatchSegments caps the victims one phased round takes between
// lock windows. A constant (worker-independent) batch keeps the
// incremental pass layout-deterministic for any Concurrency while
// bounding how much cleaning any foreground operation can end up
// waiting behind.
const cleanBatchSegments = 4

// cleanPlan is the output of the plan phase: everything the copy and
// commit phases need, captured under the lock so the copy can run
// without it.
type cleanPlan struct {
	victims []*segment
	// groups holds the planned moves in plan order, split into
	// contiguous per-plane shares (planeShares), one group per worker
	// plane; refs records who owned each move's source at plan time,
	// for the commit phase's staleness check.
	groups [][]device.BlockMove
	refs   [][]blockRef
	// rewrite collects the inodes owning live blocks in the victims;
	// commit rewrites each at most once.
	rewrite map[Ino]bool
}

// Clean runs the cleaner until at least targetFree segments are
// reclaimable or no further progress is possible, then checkpoints:
// the relocations become durable and the emptied segments (SegFreeing)
// become reusable only once the medium holds a checkpoint that no
// longer references their old contents.
//
// Clean is the phased, incremental form: fs.mu is held only for the
// plan and commit windows of each pass, so foreground I/O proceeds
// while live blocks are copied. Called with no concurrent activity it
// is fully deterministic, and its layout is a function of the
// workload alone — identical for any Concurrency — though, being
// batched per round, not necessarily byte-identical to what the
// inline pass would produce for the same inputs. If
// another pass is already in flight, Clean returns zero stats
// immediately.
func (fs *FS) Clean(targetFree int) CleanStats {
	cs := fs.cleanPhased(targetFree)
	if cs.SegmentsCleaned > 0 {
		fs.mu.Lock()
		// A failure leaves the freed segments gated (SegFreeing) —
		// the safe direction; the next successful Sync releases them.
		cs.Checkpointed = fs.syncMetaLocked() == nil
		fs.mu.Unlock()
	}
	return cs
}

// CleanStep runs at most ONE phased cleaning round — plan under the
// lock, copy off it on worker planes, commit under it — toward
// targetFree reclaimable segments, and returns without checkpointing.
// It is the cooperative form of Clean for latency-critical embedders:
// instead of arming the watermark cleaner (and eating whole-pass
// stalls at times the scheduler picks), the embedder calls CleanStep
// from its own idle moments and stops the moment foreground work
// arrives — each round holds fs.mu only for its short plan and commit
// windows and copies at most cleanBatchSegments victims.
//
// The round's stats and whether it made net progress are returned:
// more=false means the pool already meets targetFree, another
// cleaning pass is in flight, or no further net progress is possible
// — the natural loop is `for { if _, more := fs.CleanStep(n); !more
// { break } }`. Segments a round empties stay gated (SegFreeing) and
// do not become reusable until the next Sync or Checkpoint puts a
// covering point on the medium; embedders that want the space
// released promptly should Sync after stepping.
func (fs *FS) CleanStep(targetFree int) (cs CleanStats, more bool) {
	more = fs.cleanStep(targetFree, true, &cs)
	return cs, more
}

// cleanPhased is the incremental cleaning loop shared by Clean and the
// background cleaner: phased rounds, counted as one pass, repeated
// while they still make net progress toward targetFree reclaimable
// segments.
func (fs *FS) cleanPhased(targetFree int) CleanStats {
	var cs CleanStats
	for first := true; fs.cleanStep(targetFree, first, &cs); first = false {
	}
	return cs
}

// cleanStep takes fs.mu for one phased round — released for the copy,
// at most cleanBatchSegments victims — toward targetFree reclaimable
// segments, counting a cleaner pass when count is set. It reports
// false without cleaning when the pool already meets targetFree or
// another pass is in flight, and otherwise whether the round made net
// progress.
func (fs *FS) cleanStep(targetFree int, count bool, cs *CleanStats) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cleaning || fs.sm.reclaimable() >= targetFree {
		return false
	}
	if count {
		fs.stats.CleanerPasses++
	}
	return fs.cleanRoundLocked(min(targetFree-fs.sm.reclaimable(), cleanBatchSegments), true, cs)
}

// cleanLocked is the inline cleaning loop: rounds that never release
// fs.mu, each taking the whole remaining deficit as its batch, counted
// as one pass under one clean-inline span. It is the fallback for
// paths that discover they are out of space while already holding the
// lock (appendBlock, line allocation, sync space accounting) — and the
// exclusive-lock baseline that BenchmarkAppendDuringCleanForeground
// measures.
func (fs *FS) cleanLocked(targetFree int) CleanStats {
	var cs CleanStats
	if fs.cleaning {
		return cs // re-entrant trigger from the cleaner's own appends
	}
	fs.stats.CleanerPasses++
	tr := fs.dev.Tracer()
	t0 := fs.now()
	// Emptied segments sit in SegFreeing until the next covering point
	// (a summary record or a checkpoint), so progress is measured in
	// reclaimable (free + freeing) segments.
	for fs.sm.reclaimable() < targetFree && fs.cleanRoundLocked(targetFree-fs.sm.reclaimable(), false, &cs) {
	}
	fs.emitSpan(tr, "clean-inline", t0, int64(cs.BlocksCopied), 0)
	return cs
}

// cleanRoundLocked runs one plan/copy/commit round over at most batch
// victims and reports whether it made net progress (a false return
// also covers "nothing plannable" and commit failures — the caller
// should stop rather than thrash). The caller holds fs.mu with
// fs.cleaning clear. With release set the round drops fs.mu for its
// copy phase and emits the clean-plan, clean-copy and clean-commit
// spans; either way it returns with fs.mu held and fs.cleaning clear.
func (fs *FS) cleanRoundLocked(batch int, release bool, cs *CleanStats) bool {
	fs.setCleaningLocked(true)
	defer fs.setCleaningLocked(false)
	tr := fs.dev.Tracer()
	if !release {
		tr = nil
	}
	tPlan := fs.now()
	before := fs.sm.reclaimable()
	victims := fs.pickVictims(batch, cs)
	if len(victims) == 0 {
		return false
	}
	plan := fs.planVictimsLocked(victims, cs)
	if plan == nil {
		return false
	}
	fs.emitSpan(tr, "clean-plan", tPlan, int64(len(plan.victims)), 0)

	// Copy phase: on a released round foreground appends, reads and
	// syncs interleave with the fanned-out relocation.
	if release {
		fs.mu.Unlock()
	}
	tCopy := fs.now()
	results := fs.dev.MoveGroups(plan.groups, len(plan.groups))
	fs.emitSpan(tr, "clean-copy", tCopy, int64(plan.moves()), int64(len(plan.groups)))
	if release {
		fs.mu.Lock()
	}

	tCommit := fs.now()
	prevCopied, prevStale := cs.BlocksCopied, cs.MovesInvalidated
	ok := fs.commitVictimsLocked(plan, results, cs)
	fs.stats.CleanerCopied += uint64(cs.BlocksCopied - prevCopied)
	fs.emitSpan(tr, "clean-commit", tCommit,
		int64(cs.BlocksCopied-prevCopied), int64(cs.MovesInvalidated-prevStale))
	// Gross progress without net gain — the round consumed as many
	// segments for copies and inode rewrites as it reclaimed — or a
	// commit failure stops the caller rather than letting it thrash.
	return ok && fs.sm.reclaimable() > before
}

// pickVictims selects up to k full segments with the best cost-benefit
// scores: (1−u)·age / (1+u), ties broken by segment id so the choice
// is deterministic. Pinned segments are counted and skipped. Right
// after a mount every segment carries the same single liveness stamp
// (replay.go), so ages are uniform and the ranking reduces to
// utilisation with id tie-breaks — which is why victim choice is
// identical whether the mount rode the liveness table or the full
// walk, and for any walk fan-out width.
func (fs *FS) pickVictims(k int, cs *CleanStats) []*segment {
	type cand struct {
		seg   *segment
		score float64
	}
	now := fs.now()
	var cands []cand
	for _, s := range fs.sm.segs {
		if s.journal {
			// The segment holds part of the current epoch's roll-forward
			// chain: recycling it would sever the replay a crash-mount
			// depends on. Unlike a SegFreeing segment, which a summary
			// record releases, it waits for the next checkpoint (which
			// clears the flag).
			continue
		}
		if s.cleanPin {
			// Already owned by an in-flight pass. Unreachable while
			// fs.cleaning serialises passes, but the pin is the local
			// invariant victim selection must respect.
			continue
		}
		switch s.state {
		case SegPinned:
			// A heat-oblivious FS would try to clean these and get
			// nothing back; we count how often the policy saves us.
			if s.live > 0 || s.heatedBlocks < fs.p.SegmentBlocks {
				cs.PinnedSkipped++
				fs.stats.CleanerSkipped++
			}
			continue
		case SegFull:
			u := s.utilisation(fs.p.SegmentBlocks)
			if u >= 1 {
				continue
			}
			age := float64(now-s.modTime) + 1
			cands = append(cands, cand{seg: s, score: (1 - u) * age / (1 + u)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].seg.id < cands[j].seg.id
	})
	if k < 1 {
		k = 1
	}
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]*segment, len(cands))
	for i, c := range cands {
		out[i] = c.seg
	}
	return out
}

// planVictimsLocked is phase 1: flush the active buffers (the copy
// phase writes device-direct into reserved slots, so every buffered
// append must be on the medium first), clean-pin the victims, and
// reserve destinations in log order. Inode blocks are relocated by
// rewriting (phase 3), not copying. The round's moves, in plan order,
// are then split into the copy phase's per-plane shares. Caller holds
// fs.mu exclusively; a nil return means the pass cannot proceed (no
// pins are left behind).
func (fs *FS) planVictimsLocked(victims []*segment, cs *CleanStats) *cleanPlan {
	if fs.flushActiveLocked() != nil {
		return nil
	}
	plan := &cleanPlan{victims: victims, rewrite: make(map[Ino]bool)}
	for _, v := range victims {
		v.cleanPin = true
	}
	var moves []device.BlockMove
	var refs []blockRef
plan:
	for _, v := range victims {
		for off, ref := range v.owners {
			if ref.ino == 0 {
				continue
			}
			pba := v.start + uint64(off)
			plan.rewrite[ref.ino] = true
			if ref.idx == -1 {
				continue
			}
			in, err := fs.inodeTask(nil, ref.ino)
			if err != nil {
				break plan
			}
			dst, err := fs.reserveSlot(in.Affinity)
			if err != nil {
				// Out of log space: clean what was planned so far; the
				// blocks left behind keep their victims full.
				break plan
			}
			moves = append(moves, device.BlockMove{Src: pba, Dst: dst})
			refs = append(refs, ref)
		}
	}
	per, _ := planeShares(len(moves), fs.p.Concurrency)
	for off := 0; off < len(moves); off += per {
		end := min(off+per, len(moves))
		plan.groups = append(plan.groups, moves[off:end])
		plan.refs = append(plan.refs, refs[off:end])
	}
	return plan
}

// moves counts the round's planned moves over every share.
func (plan *cleanPlan) moves() int {
	n := 0
	for _, g := range plan.groups {
		n += len(g)
	}
	return n
}

// commitVictimsLocked is phase 3: re-validate and retarget the moved
// blocks, account abandoned or invalidated destinations as dead space,
// rewrite each touched inode once, then free the victims that emptied
// and unpin the rest. A move commits only together with its inode's
// rewrite. Caller holds fs.mu exclusively. Returns false on a commit
// failure (a failed inode rewrite), which stops the loop.
func (fs *FS) commitVictimsLocked(plan *cleanPlan, results []device.MoveResult, cs *CleanStats) bool {
	cs.Workers = max(cs.Workers, len(plan.groups))
	defer func() {
		for _, v := range plan.victims {
			v.cleanPin = false
		}
	}()
	vict := make(map[*segment]bool, len(plan.victims))
	for _, v := range plan.victims {
		vict[v] = true
	}
	// valid marks inodes that had at least one move survive validation:
	// their in-memory block pointers changed, so they must be rewritten
	// to the log below.
	valid := make(map[Ino]bool)
	jFrom := len(fs.jBlocks)
	for gi, group := range plan.groups {
		res := results[gi]
		for i, mv := range group {
			if i >= res.Completed {
				// Never copied: the reserved slot holds nothing
				// usable and stays unreclaimable until its segment is
				// cleaned.
				if s := fs.sm.segOf(mv.Dst); s != nil {
					s.dead++
				}
				continue
			}
			ref, ok := fs.sm.owner(mv.Src)
			if !ok || ref != plan.refs[gi][i] {
				// The source was overwritten, deleted or heat-relocated
				// while the copy ran off the lock: the foreground write
				// wins, just this move is dropped, and the copied-to
				// slot is dead space until its segment is cleaned.
				if s := fs.sm.segOf(mv.Dst); s != nil {
					s.dead++
				}
				cs.MovesInvalidated++
				fs.stats.CleanerStaleMoves++
				continue
			}
			in, err := fs.inodeTask(nil, ref.ino)
			if err != nil {
				continue // src stays live; its victim stays full
			}
			fs.sm.markDead(mv.Src)
			in.Blocks[ref.idx] = mv.Dst
			fs.sm.setOwner(mv.Dst, ref, fs.now())
			fs.jBlocks = append(fs.jBlocks, blockPtr{ino: ref.ino, idx: int32(ref.idx), pba: mv.Dst})
			cs.BlocksCopied++
			valid[ref.ino] = true
		}
	}
	inos := make([]Ino, 0, len(plan.rewrite))
	for ino := range plan.rewrite {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for k, ino := range inos {
		if !valid[ino] {
			// No data block of this inode moved. Rewrite it anyway if
			// its inode block still sits in a victim (that is how inode
			// blocks are relocated); skip it if the foreground already
			// moved everything out from under the pass.
			s := fs.sm.segOf(fs.imap[ino])
			if s == nil || !vict[s] {
				continue
			}
		}
		in, err := fs.inodeTask(nil, ino)
		if err != nil {
			continue // deleted mid-copy; its blocks went stale above
		}
		if err := fs.writeInode(in); err != nil {
			// Without the rewrite on the log, a later checkpoint would
			// still reference the stale inode; freeing its victims now
			// would let new writes overwrite blocks that stale inode
			// points at. Undo the moves of every inode not rewritten,
			// leave its victims full and stop the pass.
			fs.undoMovesLocked(plan, inos[k:], jFrom)
			return false
		}
		cs.BlocksCopied++
	}
	progress := false
	for _, v := range plan.victims {
		if v.state == SegFull && v.live == 0 {
			// Emptied, but gated until the next covering point stops
			// referencing the old contents (see SegFreeing).
			v.state = SegFreeing
			v.next = 0
			v.dead = 0
			v.pending = nil
			cs.SegmentsCleaned++
			progress = true
		}
	}
	// Errors along the way (failed plan reservations, refused copies,
	// invalidated moves) leave their victims partly live and thus
	// unfreed; the loop keeps cleaning only while passes still free
	// segments.
	return progress
}

// undoMovesLocked rolls back a commit's retargets for the inodes whose
// rewrites never reached the log, so memory, the owner table and the
// journal agree with their images on the log again: each block points
// at its source again, the copy is dead space, and the back-pointers
// the commit journaled for them since jFrom are dropped. Caller holds
// fs.mu exclusively.
func (fs *FS) undoMovesLocked(plan *cleanPlan, inos []Ino, jFrom int) {
	undo := make(map[Ino]bool, len(inos))
	for _, ino := range inos {
		undo[ino] = true
	}
	for gi, group := range plan.groups {
		for i, mv := range group {
			ref := plan.refs[gi][i]
			if got, ok := fs.sm.owner(mv.Dst); !undo[ref.ino] || !ok || got != ref {
				continue // not committed, or its inode was rewritten
			}
			in, _ := fs.inodeTask(nil, ref.ino)
			in.Blocks[ref.idx] = mv.Src
			fs.sm.markDead(mv.Dst)
			src := fs.sm.segOf(mv.Src)
			fs.sm.setOwner(mv.Src, ref, src.modTime)
			src.dead--
		}
	}
	kept := fs.jBlocks[:jFrom]
	for _, bp := range fs.jBlocks[jFrom:] {
		if !undo[bp.ino] {
			kept = append(kept, bp)
		}
	}
	fs.jBlocks = kept
}

// reserveSlot assigns the next log position of the affinity's active
// segment without writing anything: the cleaner's copy phase fills
// reserved slots device-direct, bypassing the group-commit buffer.
// Caller must have flushed the active buffers first, so the pending
// run stays the contiguous tail of the segment — and because the slot
// is carved out by bumping the frontier, appends issued while the copy
// phase runs off the lock land strictly behind every reservation.
func (fs *FS) reserveSlot(affinity uint8) (uint64, error) {
	seg, err := fs.activeLocked(affinity, 1, false)
	if err != nil {
		return 0, err
	}
	pba := seg.start + uint64(seg.next)
	seg.next++
	seg.modTime = fs.now()
	return pba, nil
}

// Bimodality measures how bimodal the segment population is: for each
// non-free segment the heated share of its *used* space
// (heated / (heated + live)) is computed, and the metric is the
// fraction of segments that are almost entirely heated (>90 %) or
// almost entirely unheated (<10 %). The §4.1 clustering policy drives
// this toward 1 — "we have only mostly heated segments and mostly
// unheated segments" — while heat-oblivious placement leaves mixed
// segments in the middle.
func (fs *FS) Bimodality() float64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	total, modal := 0, 0
	for _, s := range fs.sm.segs {
		if s.state == SegFree {
			continue
		}
		// Dead blocks in a pinned segment count as occupancy: they can
		// never be reclaimed, so a "mostly heated" segment polluted by
		// dead WMRM blocks is not modal.
		used := s.heatedBlocks + s.live + s.dead
		if used == 0 {
			continue
		}
		total++
		f := float64(s.heatedBlocks) / float64(used)
		if f < 0.1 || f > 0.9 {
			modal++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(modal) / float64(total)
}
