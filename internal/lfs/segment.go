package lfs

import (
	"fmt"
	"sort"
	"time"
)

// Segment management. The device space above the checkpoint region is
// divided into fixed-size, power-of-two-aligned segments. New data is
// appended to the current segment of its affinity class; the usage
// table tracks live blocks per segment for the cleaner.

// SegmentState classifies a segment.
type SegmentState int

// Segment states.
const (
	// SegFree holds no live data and can be reused.
	SegFree SegmentState = iota
	// SegActive is being filled by an appender.
	SegActive
	// SegFull has been filled and awaits cleaning.
	SegFull
	// SegPinned contains at least one heated line and can never be
	// cleaned or reused (§4.1: copying a heated line "just decreases
	// the free space").
	SegPinned
	// SegFreeing has been emptied by the cleaner but the metadata on
	// the medium may still reference its old contents; it becomes
	// SegFree — and only then reusable — once a covering point (a
	// checkpoint, or a summary record journaling the relocations) is
	// on the medium. Reusing it earlier would let fresh appends
	// overwrite blocks a crash-recovery mount still needs.
	SegFreeing
)

// String names the state.
func (s SegmentState) String() string {
	switch s {
	case SegFree:
		return "free"
	case SegActive:
		return "active"
	case SegFull:
		return "full"
	case SegPinned:
		return "pinned"
	case SegFreeing:
		return "freeing"
	default:
		return fmt.Sprintf("SegmentState(%d)", int(s))
	}
}

// segment is the in-memory bookkeeping for one on-disk segment.
type segment struct {
	id    int
	start uint64 // first PBA
	state SegmentState
	// next is the next unwritten block offset within the segment (for
	// active segments).
	next int
	// live counts blocks still referenced.
	live int
	// owners[off] is the owner of block start+off while it holds live
	// data, the zero ref while it does not (ino 0 is never allocated):
	// the segment usage table of Rosenblum & Ousterhout's LFS, which
	// the cleaner reads and the checkpointed liveness table serializes.
	owners []blockRef
	// dead counts blocks that were written and later invalidated while
	// in this segment; reset when the segment is cleaned or reused.
	// For pinned segments this space is unreclaimable forever.
	dead int
	// heatedBlocks counts blocks inside heated lines.
	heatedBlocks int
	// pending buffers the payloads of appended-but-uncommitted blocks:
	// always the tail [next-len(pending), next) of the segment, group-
	// committed as one batched device write on write-back, seal or
	// Sync. Blocks below the pending run are on the medium (or are
	// dead reserved slots the cleaner abandoned).
	pending [][]byte
	// modTime is the last write time, for cost-benefit ageing.
	modTime time.Duration
	// affinity is the class of the appender that filled it (for
	// diagnostics and clustering policy).
	affinity uint8
	// journal marks a segment holding blocks of the current epoch's
	// roll-forward summary chain. The cleaner refuses such segments —
	// recycling one would sever the replay a crash-mount depends on —
	// until the next checkpoint makes the chain obsolete and clears
	// every flag.
	journal bool
	// cleanPin marks a victim segment whose live blocks are being
	// relocated by an in-flight cleaning pass (set during plan, cleared
	// at commit, always under fs.mu). While the copy phase runs with
	// fs.mu released, foreground operations may freely invalidate
	// blocks in a clean-pinned segment (overwrite, delete, heat-file
	// relocation): they only flip liveness bookkeeping, and the commit
	// phase re-validates every move against it, dropping just the moves
	// that went stale. The pin's job is to keep the segment out of any
	// other cleaner decision — victim selection skips it — until the
	// owning pass commits.
	cleanPin bool
}

// segmentManager owns all segments.
type segmentManager struct {
	segs      []*segment
	segBlocks int
	base      uint64 // PBA of segment 0
}

func newSegmentManager(base uint64, totalBlocks, segBlocks int) *segmentManager {
	if segBlocks <= 0 || totalBlocks < segBlocks {
		panic(fmt.Sprintf("lfs: bad segment geometry total=%d seg=%d", totalBlocks, segBlocks))
	}
	n := totalBlocks / segBlocks
	sm := &segmentManager{
		segBlocks: segBlocks,
		base:      base,
	}
	backing := make([]blockRef, n*segBlocks)
	for i := 0; i < n; i++ {
		sm.segs = append(sm.segs, &segment{
			id:     i,
			start:  base + uint64(i*segBlocks),
			owners: backing[i*segBlocks : (i+1)*segBlocks : (i+1)*segBlocks],
		})
	}
	return sm
}

// segOf maps a PBA to its segment, or nil when outside the log.
func (sm *segmentManager) segOf(pba uint64) *segment {
	if pba < sm.base {
		return nil
	}
	idx := int(pba-sm.base) / sm.segBlocks
	if idx >= len(sm.segs) {
		return nil
	}
	return sm.segs[idx]
}

// allocSegment returns a free segment and marks it active, or nil when
// none is free.
func (sm *segmentManager) allocSegment(affinity uint8) *segment {
	for _, s := range sm.segs {
		if s.state == SegFree {
			s.state = SegActive
			s.next = 0
			s.dead = 0
			s.pending = nil
			s.affinity = affinity
			s.journal = false
			s.cleanPin = false
			return s
		}
	}
	return nil
}

// freeSegments counts segments in SegFree.
func (sm *segmentManager) freeSegments() int {
	n := 0
	for _, s := range sm.segs {
		if s.state == SegFree {
			n++
		}
	}
	return n
}

// reclaimable counts segments that are free or will be at the next
// checkpoint (SegFreeing) — the cleaner's notion of progress.
func (sm *segmentManager) reclaimable() int {
	n := 0
	for _, s := range sm.segs {
		if s.state == SegFree || s.state == SegFreeing {
			n++
		}
	}
	return n
}

// freeingSegments counts segments gated in SegFreeing.
func (sm *segmentManager) freeingSegments() int {
	n := 0
	for _, s := range sm.segs {
		if s.state == SegFreeing {
			n++
		}
	}
	return n
}

// convertFreeing promotes every SegFreeing segment to SegFree. Called
// right after a checkpoint reaches the medium: from that moment no
// recovery path references their old contents.
func (sm *segmentManager) convertFreeing() {
	for _, s := range sm.segs {
		if s.state == SegFreeing {
			s.state = SegFree
		}
	}
}

// slot locates pba's owner slot; s is nil when pba is outside the
// log, where no block is ever live.
func (sm *segmentManager) slot(pba uint64) (s *segment, ref *blockRef) {
	s = sm.segOf(pba)
	if s == nil {
		return nil, nil
	}
	return s, &s.owners[pba-s.start]
}

// setOwner records pba as live data owned by ref. A slot that is
// already live just takes the new owner.
func (sm *segmentManager) setOwner(pba uint64, ref blockRef, now time.Duration) {
	s, slot := sm.slot(pba)
	if s == nil {
		return
	}
	if slot.ino == 0 {
		s.live++
		s.modTime = now
	}
	*slot = ref
}

// markDead records that pba no longer holds live data.
func (sm *segmentManager) markDead(pba uint64) {
	s, slot := sm.slot(pba)
	if s == nil || slot.ino == 0 {
		return
	}
	*slot = blockRef{}
	s.live--
	s.dead++
}

// owner returns pba's owner and whether pba holds live data.
func (sm *segmentManager) owner(pba uint64) (blockRef, bool) {
	s, slot := sm.slot(pba)
	if s == nil || slot.ino == 0 {
		return blockRef{}, false
	}
	return *slot, true
}

// pin marks the segment containing pba (and the n-1 following blocks)
// pinned because a heated line landed there.
func (sm *segmentManager) pin(start uint64, n int) {
	for pba := start; pba < start+uint64(n); pba++ {
		if s := sm.segOf(pba); s != nil {
			s.state = SegPinned
			s.heatedBlocks++
		}
	}
}

// utilisation returns the live fraction of a segment.
func (s *segment) utilisation(segBlocks int) float64 {
	return float64(s.live) / float64(segBlocks)
}

// SegmentInfo is the exported view of one segment, for experiments.
type SegmentInfo struct {
	// ID is the segment's index in the segment table.
	ID int
	// Start is the PBA of the segment's first block.
	Start uint64
	// State is the segment's lifecycle state.
	State SegmentState
	// LiveBlocks counts blocks still referenced by an inode.
	LiveBlocks int
	// HeatedBlocks counts blocks inside heated (tamper-evident) lines.
	HeatedBlocks int
	// DeadBlocks counts invalidated blocks; in a pinned segment they
	// are lost forever (the §4.1 stranding cost).
	DeadBlocks int
	// Blocks is the segment size in blocks.
	Blocks int
	// Affinity is the heat-affinity class of the appender that filled
	// the segment.
	Affinity uint8
	// Journal reports that the segment holds part of the current
	// epoch's summary chain and is therefore shielded from the
	// cleaner until the next checkpoint.
	Journal bool
	// CleanPin reports that an in-flight cleaning pass is relocating
	// the segment's live blocks (plan committed, copy possibly still
	// running off the lock).
	CleanPin bool
	// HeatedFraction is HeatedBlocks over the segment size.
	HeatedFraction float64
}

// snapshot exports all segments sorted by id.
func (sm *segmentManager) snapshot() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(sm.segs))
	for _, s := range sm.segs {
		out = append(out, SegmentInfo{
			ID:             s.id,
			Start:          s.start,
			State:          s.state,
			LiveBlocks:     s.live,
			HeatedBlocks:   s.heatedBlocks,
			DeadBlocks:     s.dead,
			Blocks:         sm.segBlocks,
			Affinity:       s.affinity,
			Journal:        s.journal,
			CleanPin:       s.cleanPin,
			HeatedFraction: float64(s.heatedBlocks) / float64(sm.segBlocks),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
