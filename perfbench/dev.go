package main

import (
	"sync/atomic"
	"time"

	"sero/internal/device"
	"sero/internal/trace"
)

// Methods the timing decorator measures. Each traced twin (MRSTraced,
// WriteBlocksTraced, WriteRunsFannedTraced) counts under its plain
// name, so a method's figures do not depend on whether lfs passed a
// task.
const (
	mMRS = iota
	mWriteBlocks
	mWriteRunsFanned
	mReadBlocksFanned
	mMoveGroups
	mHeatLine
	mWriteLineBatch
	mVerifyLineOffClock
	numMethods
)

var methodNames = [numMethods]string{
	"MRS", "WriteBlocks", "WriteRunsFanned", "ReadBlocksFanned",
	"MoveGroups", "HeatLine", "WriteLineBatch", "VerifyLineOffClock",
}

// methodCounters accumulate one method's calls, blocks, host time and
// shared-clock virtual time. Sessions call the device concurrently, so
// every field is atomic.
type methodCounters struct {
	calls, blocks, hostNS, vNS atomic.Int64
}

// devCounts is a plain snapshot of every method's counters.
type devCounts [numMethods]struct{ calls, blocks, hostNS, vNS int64 }

// sub returns c − o field by field.
func (c devCounts) sub(o devCounts) devCounts {
	for i := range c {
		c[i].calls -= o[i].calls
		c[i].blocks -= o[i].blocks
		c[i].hostNS -= o[i].hostNS
		c[i].vNS -= o[i].vNS
	}
	return c
}

// timedDev is a device.Dev decorator between lfs and the device or
// array it is given. It forwards every call unchanged and, for the
// methods above, counts calls and blocks and measures host time and
// the shared virtual clock's advance across the call. With a span log
// attached it also records one host-time span per call. It never
// touches the virtual clock, so a run through it is identical in
// virtual time to a run without it.
type timedDev struct {
	device.Dev
	m     [numMethods]methodCounters
	spans atomic.Pointer[spanLog]
}

// call is one measured invocation in flight.
type call struct {
	d      *timedDev
	method int
	task   *trace.Task
	h0     time.Time
	v0     time.Duration
}

func (d *timedDev) begin(method int, task *trace.Task) call {
	return call{d: d, method: method, task: task, h0: time.Now(), v0: d.Clock().Now()}
}

func (c call) end(blocks int) {
	host := time.Since(c.h0)
	v := c.d.Clock().Now() - c.v0
	mc := &c.d.m[c.method]
	mc.calls.Add(1)
	mc.blocks.Add(int64(blocks))
	mc.hostNS.Add(int64(host))
	mc.vNS.Add(int64(v))
	if sl := c.d.spans.Load(); sl != nil {
		sl.device(c.method, c.task, c.h0, host)
	}
}

// counts snapshots every method's counters.
func (d *timedDev) counts() devCounts {
	var out devCounts
	for i := range d.m {
		out[i].calls = d.m[i].calls.Load()
		out[i].blocks = d.m[i].blocks.Load()
		out[i].hostNS = d.m[i].hostNS.Load()
		out[i].vNS = d.m[i].vNS.Load()
	}
	return out
}

func (d *timedDev) MRS(pba uint64) ([]byte, error) { return d.MRSTraced(nil, pba) }

func (d *timedDev) MRSTraced(task *trace.Task, pba uint64) ([]byte, error) {
	c := d.begin(mMRS, task)
	b, err := d.Dev.MRSTraced(task, pba)
	c.end(1)
	return b, err
}

func (d *timedDev) WriteBlocks(start uint64, blocks [][]byte) error {
	return d.WriteBlocksTraced(nil, start, blocks)
}

func (d *timedDev) WriteBlocksTraced(task *trace.Task, start uint64, blocks [][]byte) error {
	c := d.begin(mWriteBlocks, task)
	err := d.Dev.WriteBlocksTraced(task, start, blocks)
	c.end(len(blocks))
	return err
}

func (d *timedDev) WriteRunsFanned(runs []device.WriteRun, workers int) []error {
	return d.WriteRunsFannedTraced(nil, runs, workers)
}

func (d *timedDev) WriteRunsFannedTraced(task *trace.Task, runs []device.WriteRun, workers int) []error {
	c := d.begin(mWriteRunsFanned, task)
	errs := d.Dev.WriteRunsFannedTraced(task, runs, workers)
	n := 0
	for _, r := range runs {
		n += len(r.Blocks)
	}
	c.end(n)
	return errs
}

func (d *timedDev) ReadBlocksFanned(pbas []uint64, workers int) ([][]byte, []error) {
	c := d.begin(mReadBlocksFanned, nil)
	bufs, errs := d.Dev.ReadBlocksFanned(pbas, workers)
	c.end(len(pbas))
	return bufs, errs
}

func (d *timedDev) MoveGroups(groups [][]device.BlockMove, workers int) []device.MoveResult {
	c := d.begin(mMoveGroups, nil)
	res := d.Dev.MoveGroups(groups, workers)
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	c.end(n)
	return res
}

func (d *timedDev) HeatLine(start uint64, logN uint8) (device.LineInfo, error) {
	c := d.begin(mHeatLine, nil)
	li, err := d.Dev.HeatLine(start, logN)
	c.end(1 << logN)
	return li, err
}

func (d *timedDev) WriteLineBatch(start uint64, logN uint8, blocks [][]byte) error {
	c := d.begin(mWriteLineBatch, nil)
	err := d.Dev.WriteLineBatch(start, logN, blocks)
	c.end(len(blocks))
	return err
}

func (d *timedDev) VerifyLineOffClock(start uint64) (device.VerifyReport, time.Duration, error) {
	c := d.begin(mVerifyLineOffClock, nil)
	rep, shadow, err := d.Dev.VerifyLineOffClock(start)
	c.end(int(rep.Line.Blocks()))
	return rep, shadow, err
}
