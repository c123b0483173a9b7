package sero

// One benchmark per reproducible artifact of the paper (Figures 2, 3,
// 7, 8, 9 and experiments E1–E13 — cmd/serosim lists them). Each
// bench regenerates its figure/experiment per iteration and reports
// the figure's headline quantity via ReportMetric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sero/internal/experiments"
	"sero/internal/physics"
)

func BenchmarkFig2StateMachine(b *testing.B) {
	matched := true
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2()
		matched = matched && res.AllMatch
	}
	if !matched {
		b.Fatal("state machine deviates from Fig 2")
	}
}

func BenchmarkFig3HeatLine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(3)
		if err != nil {
			b.Fatal(err)
		}
		if res.MetaSpaceBits != 3584 {
			b.Fatal("layout mismatch")
		}
	}
}

func BenchmarkFig7Anneal(b *testing.B) {
	var k700 float64
	for i := 0; i < b.N; i++ {
		pts := physics.RunFig7(uint64(i + 1))
		k700 = pts[len(pts)-1].AnisotropyJm3
	}
	b.ReportMetric(k700/1e3, "kJ/m³@700C")
}

func BenchmarkFig8XRD(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res := physics.RunFig8(uint64(i + 1))
		peak = res.AsGrownPeak.TwoThetaDeg
	}
	b.ReportMetric(peak, "peak-2θ-deg")
}

func BenchmarkFig9XRD(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res := physics.RunFig9(uint64(i + 1))
		peak = res.AnnealedPeak.TwoThetaDeg
	}
	b.ReportMetric(peak, "peak-2θ-deg")
}

func BenchmarkE1OpLatency(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.ErbOverMrb
	}
	b.ReportMetric(ratio, "erb/mrb")
}

func BenchmarkE2Cleaner(b *testing.B) {
	var stranded float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE2(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		stranded = float64(res.Oblivious[len(res.Oblivious)-1].StrandedBlocks)
	}
	b.ReportMetric(stranded, "oblivious-stranded-blocks")
}

func BenchmarkE3Bimodality(b *testing.B) {
	var aware, obl float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE3(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		aware, obl = res.AwareBimodality, res.ObliviousBimodality
	}
	b.ReportMetric(aware, "aware-bimodality")
	b.ReportMetric(obl, "oblivious-bimodality")
}

func BenchmarkE4Attacks(b *testing.B) {
	var covered float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE4(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, a := range res.Results {
			if a.Prevented || a.Detected {
				n++
			}
		}
		covered = float64(n) / float64(len(res.Results))
	}
	b.ReportMetric(covered, "caught-fraction")
}

func BenchmarkE5Overhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE5()
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Points[len(res.Points)-1].OverheadFraction
	}
	b.ReportMetric(overhead*100, "overhead-%-at-2^8")
}

func BenchmarkE6Archival(b *testing.B) {
	var dedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		dedup = float64(res.VentiDeduped)
	}
	b.ReportMetric(dedup, "venti-deduped-blocks")
}

func BenchmarkE7ErbReliability(b *testing.B) {
	var miss float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunE7(uint64(i + 1))
		for _, p := range res.Points {
			if p.NoiseSigma == 0.05 && p.Retries == 8 {
				miss = p.MissRate
			}
		}
	}
	b.ReportMetric(miss, "miss-rate-σ0.05-r8")
}

func BenchmarkE8Aging(b *testing.B) {
	var ro float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE8(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		ro = res.Points[len(res.Points)-1].ReadOnlyRatio
	}
	b.ReportMetric(ro, "final-RO-ratio")
}

func BenchmarkE9Defects(b *testing.B) {
	var fail float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE9(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		fail = res.Points[3].SectorFailRate // 0.5% defect density
	}
	b.ReportMetric(fail, "fail-rate-at-0.5%")
}

func BenchmarkE10Pulse(b *testing.B) {
	var pulses float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunE10()
		for _, p := range res.Points {
			if p.PulseTempC == 700 {
				pulses = float64(p.PulsesToHeat)
			}
		}
	}
	b.ReportMetric(pulses, "pulses-to-heat-700C")
}

func BenchmarkE11Baselines(b *testing.B) {
	var detected float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE11()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, r := range res.Results {
			if r.Detected {
				n++
			}
		}
		detected = float64(n)
	}
	b.ReportMetric(detected, "technologies-detecting")
}

func BenchmarkE12Clustering(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE12(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		var aware, obl float64
		for _, r := range res.Rows {
			if r.Design == "ffs" {
				if r.HeatAware {
					aware = r.Bimodality
				} else {
					obl = r.Bimodality
				}
			}
		}
		gap = aware - obl
	}
	b.ReportMetric(gap, "ffs-bimodality-gap")
}

func BenchmarkE13Scrub(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE13(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		latency = res.Points[0].DetectionLatency.Seconds()
	}
	b.ReportMetric(latency*1000, "latency-ms-at-100ms-scrub")
}

// Device micro-benchmarks: wall-clock cost of the simulator itself
// (virtual-time latencies are E1's subject; these measure how fast the
// simulation runs on the host).

func newBenchDevice(b *testing.B, blocks int) *Device {
	b.Helper()
	return Open(Options{Blocks: blocks, Quiet: true})
}

func BenchmarkDeviceWrite(b *testing.B) {
	d := newBenchDevice(b, 64)
	data := make([]byte, BlockSize)
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Write(uint64(i%64), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceRead(b *testing.B) {
	d := newBenchDevice(b, 64)
	data := make([]byte, BlockSize)
	for pba := uint64(0); pba < 64; pba++ {
		if err := d.Write(pba, data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Read(uint64(i % 64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceHeatLine(b *testing.B) {
	data := make([]byte, BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newBenchDevice(b, 8)
		for pba := uint64(0); pba < 8; pba++ {
			if err := d.Write(pba, data); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := d.Heat(0, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel-audit benchmarks: wall-clock and virtual-time cost of
// auditing a device with 1024 heated lines at different fan-out
// widths. On a multicore host the wall-clock speedup tracks the worker
// count (the per-line physics and hashing dominate and run in
// parallel); the virt-ms/audit metric shows the deterministic
// virtual-time contract (max of per-worker elapsed) on any host.

var auditBench struct {
	once sync.Once
	dev  *Device
	err  error
}

const auditBenchLines = 1024

// auditBenchDevice lazily builds one shared device with 1024 heated
// two-block lines; audits are read-only, so every benchmark in the
// family reuses it.
func auditBenchDevice(b *testing.B) *Device {
	b.Helper()
	auditBench.once.Do(func() {
		d := Open(Options{Blocks: 2 * auditBenchLines, Quiet: true})
		blk := make([]byte, BlockSize)
		for i := 0; i < auditBenchLines; i++ {
			copy(blk, fmt.Sprintf("audit bench line %d", i))
			start, logN, err := d.WriteLine([][]byte{blk})
			if err != nil {
				auditBench.err = err
				return
			}
			if _, err := d.Heat(start, logN); err != nil {
				auditBench.err = err
				return
			}
		}
		auditBench.dev = d
	})
	if auditBench.err != nil {
		b.Fatal(auditBench.err)
	}
	return auditBench.dev
}

func benchmarkAudit(b *testing.B, workers int) {
	d := auditBenchDevice(b)
	b.ResetTimer()
	var virt time.Duration
	for i := 0; i < b.N; i++ {
		t0 := d.ElapsedVirtual()
		rep := d.AuditParallel(workers)
		virt = d.ElapsedVirtual() - t0
		if !rep.Clean() {
			b.Fatal("audit found tampering on a pristine device")
		}
		if len(rep.Reports) != auditBenchLines {
			b.Fatalf("audit covered %d lines, want %d", len(rep.Reports), auditBenchLines)
		}
	}
	b.ReportMetric(virt.Seconds()*1e3, "virt-ms/audit")
}

func BenchmarkAuditSerial(b *testing.B)    { benchmarkAudit(b, 1) }
func BenchmarkAuditParallel2(b *testing.B) { benchmarkAudit(b, 2) }
func BenchmarkAuditParallel4(b *testing.B) { benchmarkAudit(b, 4) }
func BenchmarkAuditParallel8(b *testing.B) { benchmarkAudit(b, 8) }

func BenchmarkDeviceVerifyLine(b *testing.B) {
	d := newBenchDevice(b, 8)
	data := make([]byte, BlockSize)
	for pba := uint64(0); pba < 8; pba++ {
		if err := d.Write(pba, data); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := d.Heat(0, 3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.Verify(0)
		if err != nil || !rep.OK {
			b.Fatal(err)
		}
	}
}
