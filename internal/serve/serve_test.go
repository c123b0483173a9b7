package serve

import (
	"bytes"
	"testing"
	"time"
)

// smallConfig returns a serving config sized for unit tests.
func smallConfig(sessions int) Config {
	cfg := DefaultConfig(sessions, 48, 384)
	cfg.SegmentBlocks = 32
	cfg.SyncEvery = 16
	cfg.BurstEvery = 64
	cfg.BurstLen = 8
	return cfg
}

func TestRunSingleSession(t *testing.T) {
	res, err := Run(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.VirtualNS <= 0 || res.ThroughputOpsPerSec <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	for _, kind := range []string{"create", "write", "read", "rename", "delete", "sync"} {
		st, ok := res.PerOp[kind]
		if !ok || st.Count == 0 {
			t.Errorf("no %s ops recorded", kind)
			continue
		}
		if st.P50NS > st.P99NS || st.P99NS > st.WorstNS {
			t.Errorf("%s percentiles disordered: %+v", kind, st)
		}
	}
	// Syncs carry the device work of the buffered appends they flush.
	if res.PerOp["sync"].WorstNS <= res.PerOp["write"].P50NS {
		t.Errorf("sync worst %d not above buffered-append p50 %d",
			res.PerOp["sync"].WorstNS, res.PerOp["write"].P50NS)
	}
}

// TestRunConcurrentSessions drives read+rename mixes from many
// sessions at once; under -race this is the serving tier's race gate.
func TestRunConcurrentSessions(t *testing.T) {
	single, err := Run(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sessions := range []int{2, 4, 8} {
		res, err := Run(smallConfig(sessions), nil)
		if err != nil {
			t.Fatalf("sessions=%d: %v", sessions, err)
		}
		if res.TotalOps == 0 {
			t.Fatalf("sessions=%d: no ops", sessions)
		}
		// Total work is partitioned, not duplicated: op totals match the
		// single-session stream count to within churn-degradation noise.
		if a, b := single.TotalOps, res.TotalOps; a > b+b/8 || b > a+a/8 {
			t.Fatalf("sessions=%d: op total %d diverges from the single-session %d", sessions, b, a)
		}
		if res.PerOp["read"].Count == 0 || res.PerOp["rename"].Count == 0 {
			t.Fatalf("sessions=%d: read/rename missing from mix", sessions)
		}
	}
}

// TestRunStreamsDeterministic: the set of generated session streams is
// a pure function of the config — independent of scheduling.
func TestRunStreamsDeterministic(t *testing.T) {
	cfg := smallConfig(3)
	a, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalOps != b.TotalOps {
		t.Fatalf("op totals differ across identical runs: %d vs %d", a.TotalOps, b.TotalOps)
	}
	for kind, st := range a.PerOp {
		if b.PerOp[kind].Count != st.Count {
			t.Fatalf("%s count differs: %d vs %d", kind, st.Count, b.PerOp[kind].Count)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no-sessions":    {Sessions: 0, Files: 10},
		"no-files":       {Sessions: 1, Files: 0},
		"overpartition":  {Sessions: 8, Files: 4},
		"zipf-diverges":  {Sessions: 1, Files: 4, ZipfTheta: 1.0},
		"huge-fileblock": {Sessions: 1, Files: 4, FileBlocks: 1 << 20},
	} {
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReportRoundTripAndValidate(t *testing.T) {
	res, err := Run(smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport([]Result{res})
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("round-tripped report invalid: %v", err)
	}
	back, err := DecodeReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Runs[0].TotalOps != res.TotalOps || back.Runs[0].Config.Seed != res.Config.Seed {
		t.Fatal("round trip lost data")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	good, err := Run(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Report){
		"schema":     func(r *Report) { r.Schema = "bogus/v0" },
		"schema-v1":  func(r *Report) { r.Schema = "sero-serving-bench/v1" },
		"schema-v2":  func(r *Report) { r.Schema = "sero-serving-bench/v2" },
		"no-runs":    func(r *Report) { r.Runs = nil },
		"zero-ops":   func(r *Report) { r.Runs[0].TotalOps = 0 },
		"no-virt":    func(r *Report) { r.Runs[0].VirtualNS = 0 },
		"no-per-op":  func(r *Report) { r.Runs[0].PerOp = nil },
		"count-drop": func(r *Report) { r.Runs[0].TotalOps++ },
		"no-config":  func(r *Report) { r.Runs[0].Config.Seed = 0 },
	}
	for name, mutate := range cases {
		rep := NewReport([]Result{good})
		// Deep-enough copy: PerOp is shared, so rebuild it per case.
		perOp := make(map[string]OpStats, len(good.PerOp))
		for k, v := range good.PerOp {
			perOp[k] = v
		}
		rep.Runs[0].PerOp = perOp
		mutate(&rep)
		if err := rep.Validate(); err == nil {
			t.Errorf("%s: malformed report accepted", name)
		}
	}
	if err := ValidateJSON([]byte("{not json")); err == nil {
		t.Error("garbage bytes accepted")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	if h.count != 1000 {
		t.Fatalf("count %d", h.count)
	}
	p50 := h.quantile(0.50)
	p99 := h.quantile(0.99)
	if p50 <= 0 || p99 < p50 || h.worst() < p99 {
		t.Fatalf("disordered: p50=%v p99=%v worst=%v", p50, p99, h.worst())
	}
	if h.worst() != 1000*time.Microsecond {
		t.Fatalf("worst %v", h.worst())
	}
	// Log-bucketed rank answers are exact to within a 2x bucket.
	if p50 < 250*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 %v implausible for uniform 1..1000µs", p50)
	}
	var other histogram
	other.record(5 * time.Second)
	h.merge(&other)
	if h.count != 1001 || h.worst() != 5*time.Second {
		t.Fatal("merge lost samples")
	}
	var empty histogram
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Fatal("empty histogram nonzero")
	}
}

// TestRunStriped serves over a striped array and checks the width-1
// equivalence of the trajectory fields, the width-4 throughput gain
// and the degraded path.
func TestRunStriped(t *testing.T) {
	// The throughput gate runs one session: a single-session trajectory
	// is deterministic, while multi-session interleaving (and hence the
	// cleaning order) depends on the schedule.
	rawOne, err := Run(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	wideOne := smallConfig(1)
	wideOne.Devices = 4
	wideOne.ParityDevices = 1
	stripedOne, err := Run(wideOne, nil)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := stripedOne.ThroughputOpsPerSec / rawOne.ThroughputOpsPerSec; speedup < 1.5 {
		t.Fatalf("width-4 single-session speedup %.2fx below the 1.5x bar", speedup)
	}

	base := smallConfig(4)
	single, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}

	wide := base
	wide.Devices = 4
	wide.ParityDevices = 1
	res, err := Run(wide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps != single.TotalOps {
		t.Fatalf("op streams diverged across widths: %d vs %d", res.TotalOps, single.TotalOps)
	}
	if res.Devices != 4 || res.ParityDevices != 1 || res.Degraded {
		t.Fatalf("array fields wrong: %+v", res)
	}
	if len(res.PerDevice) != 4 {
		t.Fatalf("per-device breakdown missing: %+v", res.PerDevice)
	}
	if res.ParityBlockWrites == 0 {
		t.Fatal("no parity writes recorded")
	}
	var maxClock int64
	for _, ds := range res.PerDevice {
		if ds.ClockNS > maxClock {
			maxClock = ds.ClockNS
		}
		if ds.MagneticWrites == 0 {
			t.Fatalf("member %d never written", ds.Device)
		}
	}
	if maxClock != res.VirtualNS {
		t.Fatalf("VirtualNS %d is not the slowest member clock %d", res.VirtualNS, maxClock)
	}

	deg := wide
	deg.DegradedDevices = 1
	dres, err := Run(deg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Degraded || dres.TotalOps != single.TotalOps {
		t.Fatalf("degraded run wrong: degraded=%v ops=%d", dres.Degraded, dres.TotalOps)
	}
	if !dres.PerDevice[3].Failed {
		t.Fatal("failed member not flagged in per-device stats")
	}
	if dres.DegradedReads == 0 || dres.ReconstructedBlocks == 0 {
		t.Fatalf("degraded run never reconstructed: %d reads, %d blocks",
			dres.DegradedReads, dres.ReconstructedBlocks)
	}
}

// TestRunWidth1MatchesRawDevice: a one-member array's trajectory is
// byte-identical to the raw device's — virtual time included. One
// session, because multi-session interleaving (and hence cleaning
// order) is schedule-dependent.
func TestRunWidth1MatchesRawDevice(t *testing.T) {
	base := smallConfig(1)
	raw, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	w1 := base
	w1.Devices = 1
	arr, err := Run(w1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if raw.VirtualNS != arr.VirtualNS {
		t.Fatalf("virtual time diverged: raw %d vs width-1 %d", raw.VirtualNS, arr.VirtualNS)
	}
	if raw.TotalOps != arr.TotalOps || raw.BlocksAppended != arr.BlocksAppended ||
		raw.Checkpoints != arr.Checkpoints || raw.JournalRecords != arr.JournalRecords {
		t.Fatalf("trajectories diverged: %+v vs %+v", raw, arr)
	}
}
