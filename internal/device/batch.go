package device

import (
	"fmt"
	"iter"

	"sero/internal/trace"
)

// Batched write-path operations: the write-side counterpart of the
// fanned-out verification engine. WriteBlocks (device.go) commits a
// contiguous run as one command; WriteLineBatch specialises that to a
// future heated line; MoveGroups is the cleaner's engine, relocating
// groups of blocks on concurrent worker planes through the one
// fan-out engine (fanOut).

// WriteLineBatch writes the member blocks of a future heated line in
// one batched command: blocks[i] lands at start+1+i and the slack up
// to the end of the 2^logN line is zero-filled, leaving block 0 free
// for the heat record. HeatLine can then freeze the line without any
// further magnetic writes.
func (d *Device) WriteLineBatch(start uint64, logN uint8, blocks [][]byte) error {
	if logN < 1 || logN > 20 {
		return fmt.Errorf("%w: logN=%d", ErrBadLine, logN)
	}
	n := uint64(1) << logN
	if start%n != 0 {
		return fmt.Errorf("%w: start %d not aligned to %d", ErrBadLine, start, n)
	}
	if uint64(len(blocks)) > n-1 {
		return fmt.Errorf("%w: %d blocks exceed line capacity %d",
			ErrBadLine, len(blocks), n-1)
	}
	run := make([][]byte, 0, n-1)
	zero := make([]byte, DataBytes)
	for i := uint64(0); i < n-1; i++ {
		if int(i) < len(blocks) {
			run = append(run, blocks[i])
		} else {
			run = append(run, zero)
		}
	}
	return d.WriteBlocks(start+1, run)
}

// BlockMove relocates the payload of one block to another address.
type BlockMove struct {
	Src, Dst uint64
}

// MoveResult reports one group's outcome. Moves complete in whole
// destination-run chunks; Completed is the number of leading moves
// whose payload is on the medium at Dst (len(group) when Err is nil).
type MoveResult struct {
	Completed int
	Err       error
}

// MoveGroups executes groups of block moves with a pool of workers —
// the cleaner's fan-out. Groups are split strided over the worker
// planes ("move-fanout"; see fanOut for the slowest-worker virtual-time
// contract). The data placement is entirely the caller's (every Dst
// is preassigned), so the post-move medium layout is identical for
// any worker count; only the virtual time changes.
//
// Within a group, moves whose destinations are consecutive are
// committed as one batched write command (one settle per contiguous
// run); sources are read under their stripe locks, destinations
// written under theirs, and the two lock sets are never held together,
// so concurrent groups cannot deadlock. workers <= 0 means the
// device's configured Concurrency.
//
// MoveGroups is safe to run concurrently with foreground device I/O
// to unrelated blocks — the lfs cleaner relies on this, running its
// copy phase with the file-system lock released: its sources sit in
// retired segments nothing writes to, its destinations in reserved
// slots nothing else addresses, and any foreground traffic touching
// other blocks interleaves under the ordinary stripe-lock rules.
func (d *Device) MoveGroups(groups [][]BlockMove, workers int) []MoveResult {
	out := make([]MoveResult, len(groups))
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.fanOut(len(groups), workers, strided, nil, "move-fanout", func(pl *plane, _, g int) {
		out[g] = d.moveGroupOn(pl, groups[g])
	})
	return out
}

// moveGroupOn relocates one group of moves on the given plane. Caller
// holds the gate read lock.
func (d *Device) moveGroupOn(pl *plane, moves []BlockMove) MoveResult {
	// Chunk: maximal run of consecutive destinations.
	for i, j := range ConsecutiveRuns(len(moves), func(k int) uint64 { return moves[k].Dst }) {
		chunk := moves[i:j]
		bufs, err := d.readMoveSources(pl, chunk)
		if err != nil {
			return MoveResult{Completed: i, Err: err}
		}
		if err := d.writeMoveRun(pl, chunk[0].Dst, bufs); err != nil {
			return MoveResult{Completed: i, Err: err}
		}
	}
	return MoveResult{Completed: len(moves)}
}

// readMoveSources reads the source blocks of one chunk, batching
// consecutive sources under one range lock.
func (d *Device) readMoveSources(pl *plane, chunk []BlockMove) ([][]byte, error) {
	bufs := make([][]byte, len(chunk))
	for i, j := range ConsecutiveRuns(len(chunk), func(k int) uint64 { return chunk[k].Src }) {
		start, end := chunk[i].Src, chunk[j-1].Src+1
		if err := d.checkPBA(end - 1); err != nil {
			return nil, err
		}
		locked := d.lockRange(start, end)
		for k := i; k < j; k++ {
			src := chunk[k].Src
			err := d.magReadCheck(src)
			if err == nil {
				bufs[k] = make([]byte, DataBytes)
				_, err = d.mrsInto(pl, src, bufs[k])
			}
			if err != nil {
				d.unlockRange(locked)
				return nil, fmt.Errorf("device: move read of block %d: %w", src, err)
			}
		}
		d.unlockRange(locked)
	}
	return bufs, nil
}

// writeMoveRun commits one contiguous destination run as a single
// batched write command under its stripe locks.
func (d *Device) writeMoveRun(pl *plane, start uint64, bufs [][]byte) error {
	end := start + uint64(len(bufs))
	if err := d.checkPBA(end - 1); err != nil {
		return err
	}
	locked := d.lockRange(start, end)
	defer d.unlockRange(locked)
	for pba := start; pba < end; pba++ {
		if err := d.magWriteCheck(pba); err != nil {
			return fmt.Errorf("device: move write of block %d: %w", pba, err)
		}
	}
	d.writeRunOn(pl, start, bufs)
	return nil
}

// WriteRun is one contiguous batched write command: Blocks land at
// Start, Start+1, …, exactly as WriteBlocks would commit them — the
// stripe locks covering the run taken once, seek and settle charged
// once, frames streamed.
type WriteRun struct {
	// Start is the first destination block of the run.
	Start uint64
	// Blocks are the 512-byte payloads, one per consecutive block.
	Blocks [][]byte
}

// ConsecutiveRuns yields the maximal runs [i, j) of a sequence of n
// block addresses (addr(k) is the k-th) in which each address is one
// past the previous — the unit one batched command covers.
func ConsecutiveRuns(n int, addr func(k int) uint64) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i := 0; i < n; {
			j := i + 1
			for j < n && addr(j) == addr(j-1)+1 {
				j++
			}
			if !yield(i, j) {
				return
			}
			i = j
		}
	}
}

// WriteRunsFanned commits independent contiguous write runs on a pool
// of worker planes — the foreground write path's fan-out engine, used
// by the lfs Sync path to flush per-affinity-class group-commit
// buffers in one pass. Runs are split strided over the worker planes
// ("write-fanout"; see fanOut for the slowest-worker virtual-time
// contract). Every run's destination is the caller's (preassigned
// frontiers), so the post-flush medium layout is identical for any
// worker count; only the virtual time changes.
//
// Each run carries WriteBlocks' exact per-run contract: every payload
// and target block is checked before the first bit of that run is
// written, so a refused run writes nothing (errs[i] reports run i's
// outcome; other runs proceed). Callers must present runs with
// disjoint block ranges — they are committed concurrently under their
// own stripe locks with no cross-run ordering. workers <= 0 means the
// device's configured Concurrency.
func (d *Device) WriteRunsFanned(runs []WriteRun, workers int) []error {
	return d.WriteRunsFannedTraced(nil, runs, workers)
}

// WriteRunsFannedTraced is WriteRunsFanned with the pass's cost — the
// slowest worker's elapsed virtual time, exactly the shared-clock
// advance — attributed to task (nil behaves exactly like
// WriteRunsFanned). The traced lfs Sync path uses it so a sync op's
// own device time includes its fanned flush.
func (d *Device) WriteRunsFannedTraced(task *trace.Task, runs []WriteRun, workers int) []error {
	errs := make([]error, len(runs))
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.fanOut(len(runs), workers, strided, task, "write-fanout", func(pl *plane, _, i int) {
		errs[i] = d.writeRunChecked(pl, runs[i])
	})
	return errs
}

// writeRunChecked validates and commits one run on the given plane,
// mirroring WriteBlocks' checks block for block. Caller holds the gate
// read lock.
func (d *Device) writeRunChecked(pl *plane, r WriteRun) error {
	if len(r.Blocks) == 0 {
		return nil
	}
	for i, b := range r.Blocks {
		if len(b) != DataBytes {
			return fmt.Errorf("device: WriteRunsFanned payload %d bytes at block %d, want %d",
				len(b), i, DataBytes)
		}
	}
	n := uint64(len(r.Blocks))
	if err := d.checkPBA(r.Start); err != nil {
		return err
	}
	if r.Start+n > uint64(d.p.Blocks) {
		return fmt.Errorf("%w: [%d,%d) beyond %d blocks",
			ErrOutOfRange, r.Start, r.Start+n, d.p.Blocks)
	}
	locked := d.lockRange(r.Start, r.Start+n)
	defer d.unlockRange(locked)
	for pba := r.Start; pba < r.Start+n; pba++ {
		if err := d.magWriteCheck(pba); err != nil {
			return err
		}
	}
	d.writeRunOn(pl, r.Start, r.Blocks)
	return nil
}

// ReadBlocksFanned magnetically reads an arbitrary set of blocks on a
// pool of worker planes — the mount-time inode walk's fan-out. The
// input is split into contiguous index ranges, one per worker
// ("read-fanout"; see fanOut) — contiguous rather than strided because
// a caller that presents an address-sorted run then keeps every
// worker's seeks inside its own 1/workers-th of the span, where a
// strided split would march every worker across the whole of it.
// Results are assembled in input order for any worker count; a
// block that cannot be read yields a nil buffer and its error in the
// matching errs slot (other reads proceed — the caller decides whether
// a failure is fatal). workers <= 0 means the device's configured
// Concurrency.
func (d *Device) ReadBlocksFanned(pbas []uint64, workers int) (bufs [][]byte, errs []error) {
	bufs = make([][]byte, len(pbas))
	errs = make([]error, len(pbas))
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.fanOut(len(pbas), workers, contiguous, nil, "read-fanout", func(pl *plane, _, i int) {
		bufs[i], errs[i] = d.readBlockOn(pl, pbas[i])
	})
	return bufs, errs
}

// readBlockOn reads one block on the given plane under its stripe
// lock, mirroring MRS's checks. Caller holds the gate read lock.
func (d *Device) readBlockOn(pl *plane, pba uint64) ([]byte, error) {
	if err := d.checkPBA(pba); err != nil {
		return nil, err
	}
	locked := d.lockBlock(pba)
	defer d.unlockBlock(locked)
	if err := d.magReadCheck(pba); err != nil {
		return nil, err
	}
	buf := make([]byte, DataBytes)
	if _, err := d.mrsInto(pl, pba, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
