package device

import (
	"sync"
	"time"

	"sero/internal/trace"
)

// partition is how a fan-out splits its items over worker planes.
// Either split is static — a function of the item and worker counts
// alone, never a dynamic queue — so virtual time is a function of the
// workload, not of host scheduling (on a single-CPU host one worker
// could otherwise drain a whole queue).
type partition int

const (
	// strided: worker w takes items w, w+k, w+2k, …
	strided partition = iota
	// contiguous: worker w takes the w-th ceil(n/k)-long index range,
	// so an address-sorted input keeps each worker's seeks inside its
	// own slice of the span (seek cost scales with travel distance).
	contiguous
)

// fanOut is the device's one fan-out engine and the single
// implementation of the parallel-hardware contract: a fan-out costs
// its slowest worker, not the sum. It splits items 0..n-1 over
// min(workers, n) worker planes (workers <= 0 means the configured
// Concurrency) by part, and runs work(pl, w, i) for each item i on
// worker w's private plane, worker by worker in ascending item order.
// Worker w's plane has trace track w+1 and starts at the shared
// clock's reading at launch, from the sled home position — so with
// one worker a pass is the serial sum.
//
// When every worker is done, their stats fold into the device
// counters and the device clock advances by the maximum per-plane
// elapsed time, under arrMu so the advance cannot land inside a
// foreground operation's stopwatch window. The advance is also the
// pass's cost to its owner: it accumulates into task (nil-safe), and
// when tracing is on a join span named name covers the pass from
// launch to the slowest worker, with V1 the number of planes used.
// Gate locking is the caller's. n == 0 is a no-op.
func (d *Device) fanOut(n, workers int, part partition, task *trace.Task, name string, work func(pl *plane, w, i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = d.Concurrency()
	}
	workers = min(workers, n)
	per := 1
	if part == contiguous {
		per = (n + workers - 1) / workers
		workers = (n + per - 1) / per
	}
	fanBase := int64(d.clock.Now())
	planes := make([]*plane, workers)
	var wg sync.WaitGroup
	for w := range planes {
		planes[w] = d.newPlane(int32(w+1), fanBase)
		wg.Add(1)
		go func(w int, pl *plane) {
			defer wg.Done()
			if part == contiguous {
				for i := w * per; i < min((w+1)*per, n); i++ {
					work(pl, w, i)
				}
				return
			}
			for i := w; i < n; i += workers {
				work(pl, w, i)
			}
		}(w, planes[w])
	}
	wg.Wait()

	var maxElapsed time.Duration
	for _, pl := range planes {
		maxElapsed = max(maxElapsed, pl.clock.Now())
		d.mergeStats(pl.stats)
	}
	d.arrMu.Lock()
	d.clock.Advance(maxElapsed)
	d.arrMu.Unlock()
	task.AddDevice(maxElapsed)
	if tr := d.tracer.Load(); tr != nil {
		tr.Emit(trace.Span{Name: name, Cat: "device", Track: d.p.TrackOffset, Session: -1,
			Start: fanBase, Dur: int64(maxElapsed), V1: int64(workers)})
	}
}
