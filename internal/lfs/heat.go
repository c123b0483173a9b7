package lfs

import (
	"fmt"

	"sero/internal/device"
	"sero/internal/trace"
)

// Heating files (§4.1 and Fig 3): a heated file occupies one aligned
// line holding [hash][inode][data...]. HeatFile relocates the file's
// blocks into fresh contiguous space first — heating data "in the
// right place" is exactly what the clustering policy arranges — and
// then issues the device heat operation.
//
// Placement policy:
//   - Heat-aware mode packs lines into dedicated heat segments per
//     affinity class, so heated lines cluster and the rest of the log
//     stays clean (bimodal segments).
//   - Heat-oblivious mode (HeatAware=false) carves the line out of the
//     file's current *data* segment, mixing heated lines with live
//     WMRM data; the containing segment becomes pinned and its live
//     data is stranded — the failure mode §4.1 warns about.

// HeatResult describes a completed heat operation.
type HeatResult struct {
	// Ino is the frozen file's inode number.
	Ino Ino
	// Line is the device's record of the heated line.
	Line device.LineInfo
	// BlocksMoved counts data+inode blocks relocated into the line.
	BlocksMoved int
}

// HeatFile freezes the named file. The file's dirty data is flushed
// first; afterwards the file is read-only and every byte of it is
// covered by a heated line hash.
func (fs *FS) HeatFile(name string) (HeatResult, error) {
	return fs.HeatFileTraced(nil, name)
}

// HeatFileTraced is HeatFile with per-operation attribution (see
// trace.Task); nil task behaves exactly like HeatFile.
func (fs *FS) HeatFileTraced(task *trace.Task, name string) (HeatResult, error) {
	fs.lockTask(task)
	defer fs.unlockTask()
	// Wait out any in-flight background pass while space is short: its
	// commit is about to free segments, and the inline cleans on the
	// allocation paths below would no-op against it. This must happen
	// before anything is resolved — the wait releases fs.mu — and the
	// need is a coarse ceiling (a heated line never exceeds one
	// segment, plus flush-through space and the reserve).
	fs.waitCleanIdleLocked(fs.p.ReserveSegments + 3)
	ino, ok := fs.dir[name]
	if !ok {
		return HeatResult{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	in, err := fs.inodeTask(fs.curTask, ino)
	if err != nil {
		return HeatResult{}, err
	}
	if in.Heated() {
		return HeatResult{}, fmt.Errorf("%w: %s", ErrFileHeated, name)
	}
	// The FS is at rest here: release any cleaner-gated segments so
	// the relocation below cannot starve while reclaimable space sits
	// idle (see unwedgeFreeingLocked).
	if err := fs.unwedgeFreeingLocked(); err != nil {
		return HeatResult{}, err
	}
	// Flush pending writes (data or a bare size extension) so the
	// on-medium state is current before the line image is built.
	if len(fs.dirty[ino]) > 0 || fs.pendSize[ino] > in.Size {
		if err := fs.flushInode(ino); err != nil {
			return HeatResult{}, err
		}
	}

	// Line needs hash + inode + data blocks.
	need := 2 + len(in.Blocks)
	logN := device.LineExponent(need)
	start, err := fs.allocLineSpace(logN, in.Affinity)
	if err != nil {
		return HeatResult{}, err
	}

	// Relocate: inode at start+1, data at start+2... The inode must be
	// written with its *final* pointers, so compute them first; the
	// whole line image — inode, data, zero-filled slack — then goes to
	// the medium as one batched line-granular write command.
	newBlocks := make([]uint64, len(in.Blocks))
	for i := range in.Blocks {
		newBlocks[i] = start + 2 + uint64(i)
	}
	frozen := &Inode{
		Ino:       in.Ino,
		Size:      in.Size,
		MTime:     fs.now(),
		Flags:     in.Flags | FlagHeated,
		Affinity:  in.Affinity,
		Blocks:    newBlocks,
		HeatLines: []uint64{start},
	}
	ibuf, err := frozen.Marshal()
	if err != nil {
		return HeatResult{}, err
	}
	image := make([][]byte, 0, 1+len(in.Blocks))
	image = append(image, ibuf)
	for _, old := range in.Blocks {
		if old == 0 {
			// Hole: heats as explicit zeros.
			image = append(image, make([]byte, device.DataBytes))
			continue
		}
		data, rerr := fs.readPBATaskLocked(fs.curTask, old)
		if rerr != nil {
			return HeatResult{}, fmt.Errorf("lfs: relocating block %d: %w", old, rerr)
		}
		image = append(image, data)
	}
	if err := fs.dev.WriteLineBatch(start, logN, image); err != nil {
		return HeatResult{}, fmt.Errorf("lfs: writing line image: %w", err)
	}
	moved := len(image)

	li, err := fs.dev.HeatLine(start, logN)
	if err != nil {
		return HeatResult{}, fmt.Errorf("lfs: heat line: %w", err)
	}

	// Retire the old locations.
	for _, old := range in.Blocks {
		fs.sm.markDead(old)
	}
	if old, ok := fs.imap[ino]; ok {
		fs.sm.markDead(old)
	} else {
		// Never written: the frozen inode is its first on the log.
		fs.inoOrder.add(ino)
		delete(fs.fresh, ino)
	}

	// Adopt the frozen inode. Heated-line blocks are tracked by the
	// pin, not the owner table (they are not cleanable). The relocation is
	// journaled like any other imap change so a roll-forward mount
	// finds the frozen inode, back-pointers included.
	fs.cacheInode(frozen)
	fs.imap[ino] = start + 1
	fs.jImap[ino] = true
	for i, pba := range newBlocks {
		fs.jBlocks = append(fs.jBlocks, blockPtr{ino: ino, idx: int32(i), pba: pba})
	}
	fs.sm.pin(start, 1<<logN)
	fs.stats.HeatedFiles++
	fs.stats.HeatedLineBlock += uint64(uint64(1) << logN)

	return HeatResult{Ino: ino, Line: li, BlocksMoved: moved}, nil
}

// allocLineSpace finds a 2^logN-aligned run for a heated line.
func (fs *FS) allocLineSpace(logN uint8, affinity uint8) (uint64, error) {
	size := 1 << logN
	if size > fs.p.SegmentBlocks {
		return 0, fmt.Errorf("lfs: line of %d blocks exceeds segment size %d", size, fs.p.SegmentBlocks)
	}
	if fs.p.HeatAware {
		return fs.allocLineClustered(logN, affinity)
	}
	return fs.allocLineInPlace(logN, affinity)
}

// allocLineClustered packs lines into dedicated heat segments.
func (fs *FS) allocLineClustered(logN uint8, affinity uint8) (uint64, error) {
	size := 1 << logN
	seg := fs.heatSeg[affinity]
	if seg == nil || alignUp(seg.next, size)+size > fs.p.SegmentBlocks {
		fs.lowSpaceCleanLocked()
		seg = fs.sm.allocSegment(affinity)
		if seg == nil {
			return 0, ErrFull
		}
		seg.state = SegPinned // dedicated to heated lines from birth
		fs.heatSeg[affinity] = seg
	}
	seg.next = alignUp(seg.next, size)
	start := seg.start + uint64(seg.next)
	seg.next += size
	return start, nil
}

// allocLineInPlace carves the line out of the current data segment
// (heat-oblivious baseline; affinity-blind like appendBlock). The line
// size divides the segment size, so room for it past the frontier is
// also room for it at the next aligned offset.
func (fs *FS) allocLineInPlace(logN uint8, affinity uint8) (uint64, error) {
	size := 1 << logN
	seg, err := fs.activeLocked(affinity, size, true)
	if err != nil {
		return 0, err
	}
	// The line is written device-direct; group-commit the buffered
	// tail first so the pending run stays contiguous at seg.next.
	if err := fs.flushSegment(seg); err != nil {
		return 0, err
	}
	seg.next = alignUp(seg.next, size)
	start := seg.start + uint64(seg.next)
	seg.next += size
	return start, nil
}

func alignUp(x, align int) int {
	if rem := x % align; rem != 0 {
		return x + align - rem
	}
	return x
}

// VerifyFile checks every heated line of the named file and returns
// the device reports.
func (fs *FS) VerifyFile(name string) ([]device.VerifyReport, error) {
	fs.mu.RLock()
	ino, ok := fs.dir[name]
	if !ok {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	in, err := fs.inodeTask(nil, ino)
	if err != nil {
		fs.mu.RUnlock()
		return nil, err
	}
	if !in.Heated() {
		fs.mu.RUnlock()
		return nil, fmt.Errorf("lfs: file %s is not heated", name)
	}
	lines := append([]uint64(nil), in.HeatLines...)
	fs.mu.RUnlock()

	var out []device.VerifyReport
	for _, start := range lines {
		rep, verr := fs.dev.VerifyLine(start)
		if verr != nil {
			return out, verr
		}
		out = append(out, rep)
	}
	return out, nil
}
