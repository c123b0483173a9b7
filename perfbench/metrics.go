package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/workload"
)

// quantile returns the q-quantile of samples by nearest rank, and how
// many samples lie beyond it.
func quantile(samples []int64, q float64) (v int64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median of float64 values (mean of the middle pair for even counts).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is the fewest samples a *_tail percentile must have
// beyond it.
const tailSamples = 10

// virtualMetrics fills the virtual-clock end-to-end metrics of one
// repetition. ops is the measured mix-op count and elapsed the
// measured phase's virtual time.
func (r *rep) virtualMetrics(out *repOut, ops int, elapsed, mount time.Duration) {
	lat := map[workload.OpKind][]int64{}
	var appendApply, appendAmort, appends int64
	for _, s := range r.sess {
		for k, v := range s.lat {
			lat[k] = append(lat[k], v...)
		}
		for _, v := range s.lat[workload.OpWrite] {
			appendApply += v
		}
		appends += int64(len(s.lat[workload.OpWrite]))
		appendAmort += s.amort[workload.OpWrite]
	}
	tail := func(name string, samples []int64, q float64) {
		v, beyond := quantile(samples, q)
		if beyond < tailSamples {
			r.fail.check(fmt.Errorf("%s: p%g has %d samples beyond it, fewer than %d", name, 100*q, beyond, tailSamples))
		}
		out.e2e[name] = float64(v) / 1e3
	}
	if elapsed > 0 {
		out.e2e["throughput_kops_per_vsec"] = float64(ops) / elapsed.Seconds() / 1e3
	}
	p50, _ := quantile(lat[workload.OpRead], 0.5)
	out.e2e["read_p50_vus"] = float64(p50) / 1e3
	tail("read_tail_vus", lat[workload.OpRead], r.sp.readTail)
	p50, _ = quantile(lat[workload.OpSync], 0.5)
	out.e2e["sync_p50_vus"] = float64(p50) / 1e3
	tail("sync_tail_vus", lat[workload.OpSync], r.sp.syncTail)
	if appends > 0 {
		out.e2e["append_cost_vus"] = float64(appendApply+appendAmort) / float64(appends) / 1e3
	}
	p50, _ = quantile(r.sealNS, 0.5)
	out.e2e["seal_p50_vms"] = float64(p50) / 1e6
	p50, _ = quantile(r.roundNS, 0.5)
	out.e2e["audit_round_vms"] = float64(p50) / 1e6
	out.e2e["mount_vms"] = float64(mount) / 1e6
	for _, name := range virtualE2E {
		out.virt[name] = out.e2e[name]
	}
}

// virtualE2E are the end-to-end metrics read off the virtual clock.
var virtualE2E = []string{
	"throughput_kops_per_vsec", "read_p50_vus", "read_tail_vus", "sync_p50_vus",
	"sync_tail_vus", "append_cost_vus", "seal_p50_vms", "audit_round_vms", "mount_vms",
}

// layerInputs are the counter snapshots a repetition's per-layer
// metrics derive from: FS stats at the start (st0) and end (st1) of the
// measured phase and after the epilogue (st2), decorator and device
// counters from the measured phase through the mount, and array stats
// across the measured phase.
type layerInputs struct {
	st0, st1, st2 lfs.Stats
	dc            devCounts
	os            device.OpStats
	as0, as1      array.Stats
	mounted       *lfs.FS
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer metrics of one repetition.
func (r *rep) layerMetrics(out *repOut, in layerInputs) {
	L := out.layer
	var total, lock, queue, userBlocks, cleanStall, freeOps, deviceOps, memReads, reads float64
	var ckptSyncs []int64
	for _, s := range r.sess {
		total += float64(s.totalNS)
		lock += float64(s.lockNS)
		queue += float64(s.queueNS)
		userBlocks += float64(s.userBlocks)
		cleanStall += float64(s.cleanStallNS)
		freeOps += float64(s.freeOps)
		deviceOps += float64(s.deviceOps)
		memReads += float64(s.memReads)
		reads += float64(s.memReads + int64(len(s.lat[workload.OpRead])))
		ckptSyncs = append(ckptSyncs, s.ckptSyncs...)
	}
	d1 := func(f func(lfs.Stats) uint64) float64 { return float64(f(in.st1) - f(in.st0)) }

	// lfs, over the measured phase.
	L["lfs.lock_wait_share"] = ratio(lock, total)
	L["lfs.queue_share"] = ratio(queue, total)
	L["lfs.read_memory_share"] = ratio(memReads, reads)
	written := in.dc[mWriteBlocks].blocks + in.dc[mWriteRunsFanned].blocks +
		in.dc[mMoveGroups].blocks + in.dc[mWriteLineBatch].blocks
	L["lfs.write_amp"] = ratio(float64(written), userBlocks)
	L["lfs.journal_blocks_per_sync"] = ratio(d1(func(s lfs.Stats) uint64 { return s.JournalBlocks }),
		d1(func(s lfs.Stats) uint64 { return s.Syncs }))
	L["lfs.checkpoints"] = d1(func(s lfs.Stats) uint64 { return s.Checkpoints })
	var ck float64
	for _, v := range ckptSyncs {
		ck += float64(v)
	}
	L["lfs.checkpoint_sync_vms"] = ratio(ck, float64(len(ckptSyncs))) / 1e6
	passes := d1(func(s lfs.Stats) uint64 { return s.CleanerPasses })
	copied := d1(func(s lfs.Stats) uint64 { return s.CleanerCopied })
	L["lfs.clean.passes"] = passes
	L["lfs.clean.blocks_copied"] = copied
	L["lfs.clean.copied_per_pass"] = ratio(copied, passes)
	L["lfs.clean.stall_vms"] = cleanStall / 1e6
	if in.mounted != nil {
		mr := in.mounted.MountReport()
		L["lfs.mount.inodes_read"] = float64(mr.InodesRead)
		L["lfs.mount.table"] = 0
		if mr.TableMount {
			L["lfs.mount.table"] = 1
		}
	}

	// device, through the decorator, over measured phase, epilogue and
	// mount.
	var hostNS, blocks int64
	for m, name := range methodNames {
		c := in.dc[m]
		L["dev."+name+".calls"] = float64(c.calls)
		L["dev."+name+".blocks"] = float64(c.blocks)
		L["dev."+name+".host_ns"] = float64(c.hostNS)
		if m != mVerifyLineOffClock { // off the shared clock by contract
			L["dev."+name+".vns"] = float64(c.vNS)
		}
		hostNS += c.hostNS
		blocks += c.blocks
	}
	L["device.magnetic_read_vns"] = float64(in.os.MagneticReadNS)
	L["device.magnetic_write_vns"] = float64(in.os.MagneticWriteNS)
	L["device.electric_write_vns"] = float64(in.os.ElectricWriteNS)
	L["device.host_ns_per_block"] = ratio(float64(hostNS), float64(blocks))

	// array, over the measured phase (zero on a raw sled).
	for _, k := range []string{"array.parity_per_data_block", "array.member_skew", "array.free_op_share", "array.degraded_reads"} {
		L[k] = 0
	}
	if r.arr != nil {
		L["array.parity_per_data_block"] = ratio(float64(in.as1.ParityBlockWrites-in.as0.ParityBlockWrites),
			d1(func(s lfs.Stats) uint64 { return s.BlocksAppended }))
		lo, hi := in.as1.MemberClocks[0], in.as1.MemberClocks[0]
		for _, c := range in.as1.MemberClocks {
			lo, hi = min(lo, c), max(hi, c)
		}
		L["array.member_skew"] = ratio(float64(hi-lo), float64(hi))
		L["array.free_op_share"] = ratio(freeOps, deviceOps)
		L["array.degraded_reads"] = float64(in.as1.DegradedReads - in.as0.DegradedReads)
	}

	// audit, over the whole repetition.
	L["audit.lines_checked"] = float64(in.st2.AuditLinesChecked)
	L["audit.rounds"] = float64(in.st2.AuditRounds)
	L["audit.findings"] = float64(in.st2.AuditFindings)
	L["audit.shadow_vus_per_line"] = ratio(float64(in.st2.AuditDeviceNS), float64(in.st2.AuditLinesChecked)) / 1e3
}

// subOpStats returns a − b for the device stats the metrics use.
func subOpStats(a, b device.OpStats) device.OpStats {
	return device.OpStats{
		MagneticReadNS:  a.MagneticReadNS - b.MagneticReadNS,
		MagneticWriteNS: a.MagneticWriteNS - b.MagneticWriteNS,
		ElectricWriteNS: a.ElectricWriteNS - b.ElectricWriteNS,
	}
}

// gcSample is a reading of the runtime's cumulative CPU accounting,
// leaving out idle time: busy is CPU time spent on anything but idling
// or GC marking on otherwise idle processors, gc the part of busy that
// went to the collector.
type gcSample struct{ gc, busy float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	gc, gcIdle := s[0].Value.Float64(), s[1].Value.Float64()
	idle, total := s[2].Value.Float64(), s[3].Value.Float64()
	return gcSample{gc: gc - gcIdle, busy: total - idle - gcIdle}
}

// share is the fraction of busy CPU time since earlier that went to
// the collector.
func (s gcSample) share(earlier gcSample) float64 {
	return ratio(s.gc-earlier.gc, s.busy-earlier.busy)
}

// heapSampler polls the heap's object bytes and keeps the peak.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}
