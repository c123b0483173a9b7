package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/sim"
)

// E13 — detection latency vs scrub overhead: the "performance/security
// tradeoffs" the paper's §9 simulation agenda calls for, on the
// device's virtual clock. A store holds heated lines; an insider
// tampers at a known virtual instant; a full audit pass runs every T.
// Short T detects fast but burns device time on audits; long T is
// cheap but leaves the forgery live for longer.

// E13Point is one scrub-interval configuration.
type E13Point struct {
	// Interval is the virtual time between audit passes.
	Interval time.Duration
	// DetectionLatency is tamper-to-detection virtual time.
	DetectionLatency time.Duration
	// AuditDutyCycle is the fraction of the pre-detection timeline
	// spent auditing.
	AuditDutyCycle float64
	// Audits is the number of passes until detection.
	Audits int
}

// E13Result is the sweep.
type E13Result struct {
	// Points holds one row per scrub interval.
	Points []E13Point
	// Lines is the heated-line population size.
	Lines int
}

// RunE13 sweeps scrub intervals.
func RunE13(seed uint64) (E13Result, error) {
	res := E13Result{Lines: 8}
	for _, interval := range []time.Duration{
		100 * time.Millisecond,
		400 * time.Millisecond,
		1600 * time.Millisecond,
		6400 * time.Millisecond,
	} {
		pt, err := runE13Point(seed, res.Lines, interval)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func runE13Point(seed uint64, lines int, interval time.Duration) (E13Point, error) {
	st := core.NewStore(quietDevice(256))
	rng := sim.NewRNG(seed)

	// Population: heated lines of 4 blocks.
	var starts []uint64
	for i := 0; i < lines; i++ {
		blocks := make([][]byte, 3)
		for b := range blocks {
			blk := make([]byte, device.DataBytes)
			for j := range blk {
				blk[j] = byte(rng.Uint64())
			}
			blocks[b] = blk
		}
		start, logN, err := st.WriteLine(blocks)
		if err != nil {
			return E13Point{}, err
		}
		if _, err := st.Heat(start, logN); err != nil {
			return E13Point{}, err
		}
		starts = append(starts, start)
	}

	// The insider strikes a fixed offset into the timeline. Every
	// interval is at least 100ms, so the tamper lands before the first
	// audit pass.
	clock := st.Device().Clock()
	t0 := clock.Now()
	tamperAt := t0 + 50*time.Millisecond
	clock.AdvanceTo(tamperAt)
	victim := starts[rng.Intn(len(starts))]
	forged := make([]byte, device.DataBytes)
	copy(forged, "history, revised")
	if err := st.Device().(*device.Device).ForgeBlock(victim+1, forged); err != nil {
		return E13Point{}, err
	}
	tamperedAt := clock.Now()

	// Audit every interval until a pass finds the forgery (bounded).
	// Each pass charges the device clock, so the next one starts one
	// interval after the previous pass ended.
	pt := E13Point{Interval: interval}
	var auditTime, detectedAt time.Duration
	deadline := tamperAt + 100*interval + time.Second
	for next := t0 + interval; next <= deadline; next = clock.Now() + interval {
		clock.AdvanceTo(next)
		start := clock.Now()
		rep := st.Audit()
		pt.Audits++
		auditTime += clock.Now() - start
		if !rep.Clean() {
			detectedAt = clock.Now()
			break
		}
	}
	if detectedAt == 0 {
		return E13Point{}, fmt.Errorf("scrub never detected the tamper (interval %v)", interval)
	}
	pt.DetectionLatency = detectedAt - tamperedAt
	pt.AuditDutyCycle = float64(auditTime) / float64(detectedAt)
	return pt, nil
}

// Table renders E13.
func (r E13Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13 — detection latency vs scrub overhead (%d heated lines)\n", r.Lines)
	b.WriteString("scrub-interval  detection-latency  audit-duty-cycle  audits\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%14v %18v %17.3f %7d\n",
			p.Interval, p.DetectionLatency, p.AuditDutyCycle, p.Audits)
	}
	b.WriteString("the §9 tradeoff: frequent scrubbing buys low tamper-exposure time with device bandwidth\n")
	return b.String()
}
