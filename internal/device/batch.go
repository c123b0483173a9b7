package device

import (
	"fmt"
	"iter"
	"slices"

	"sero/internal/trace"
)

// Batched write-path operations: the write-side counterpart of the
// fanned-out verification engine. WriteBlocksTraced (device.go)
// commits a contiguous run as one command; WriteLineBatch specialises
// that to a future heated line; MoveGroups is the cleaner's engine,
// relocating groups of blocks on concurrent worker planes through the
// one fan-out engine (fanOut).

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
	return d.WriteBlocksTraced(nil, start+1, run)
}

// BlockMove relocates the payload of one block to another address.
type BlockMove struct {
	Src, Dst uint64 // source and destination block addresses
}

// MoveResult reports one group's outcome. Moves complete in whole
// destination-run chunks; Completed is the number of leading moves
// whose payload is on the medium at Dst (len(group) when Err is nil).
type MoveResult struct {
	Completed int   // leading moves whose payload is at Dst
	Err       error // why the group stopped early, or nil
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

// moveGroupOn relocates one group of moves on the given plane, one
// destination run at a time: the run's source frames are read (checked
// or proven), rebound to their destinations (rebindFrame) and written
// as one command. One frame buffer serves every run of the group, so
// a move allocates no payload of its own. Caller holds the gate read
// lock.
func (d *Device) moveGroupOn(pl *plane, moves []BlockMove) MoveResult {
	var frames []byte
	var payloads [][]byte
	for i, j := range ConsecutiveRuns(len(moves), func(k int) uint64 { return moves[k].Dst }) {
		n := j - i
		frames = slices.Grow(frames[:0], n*PhysicalBytes)[:n*PhysicalBytes]
		payloads = slices.Grow(payloads[:0], n)[:n]
		var err error
		for k := range n {
			img := frames[k*PhysicalBytes : (k+1)*PhysicalBytes]
			if err = d.readFrame(pl, moves[i+k].Src, img); err != nil {
				break
			}
			rebindFrame(img, moves[i].Dst+uint64(k))
			payloads[k] = img[HeaderBytes : HeaderBytes+DataBytes]
		}
		if err == nil {
			err = d.writeRun(pl, moves[i].Dst, payloads, frames)
		}
		if err != nil {
			return MoveResult{Completed: i, Err: fmt.Errorf("device: move: %w", err)}
		}
		pl.record(d, func(st *OpStats) { st.FramesRebound += uint64(n) })
	}
	return MoveResult{Completed: len(moves)}
}

// WriteRun is one contiguous batched write command: Blocks land at
// Start, Start+1, …, exactly as WriteBlocksTraced would commit them — the
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

// WriteRunsFannedTraced commits independent contiguous write runs on
// a pool of worker planes — the foreground write path's fan-out
// engine, used by the lfs Sync path to flush per-affinity-class
// group-commit buffers in one pass, and by the lfs group-commit flush
// and checkpoint to write a long run or a wide slot image one share
// per plane. Runs are split strided over the worker
// planes ("write-fanout"; see fanOut for the slowest-worker
// virtual-time contract). Every run's destination is the caller's
// (preassigned frontiers), so the post-flush medium layout is
// identical for any worker count; only the virtual time changes.
//
// Each run carries WriteBlocksTraced's exact per-run contract: every
// payload and target block is checked before the first bit of that run
// is written, so a refused run writes nothing (errs[i] reports run i's
// outcome; other runs proceed). Callers must present runs with
// disjoint block ranges — they are committed concurrently under their
// own stripe locks with no cross-run ordering. workers <= 0 means the
// device's configured Concurrency.
//
// The pass's cost — the slowest worker's elapsed virtual time, exactly
// the shared-clock advance — is attributed to task (nil attributes it
// to no one), so a sync op's own device time includes its fanned flush.
func (d *Device) WriteRunsFannedTraced(task *trace.Task, runs []WriteRun, workers int) []error {
	errs := make([]error, len(runs))
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.fanOut(len(runs), workers, strided, task, "write-fanout", func(pl *plane, _, i int) {
		errs[i] = d.writeRun(pl, runs[i].Start, runs[i].Blocks, nil)
	})
	return errs
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
		bufs[i], errs[i] = d.readBlock(pl, pbas[i])
	})
	return bufs, errs
}
