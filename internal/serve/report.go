package serve

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV3 is the versioned identifier of the serving-trajectory JSON
// schema, the only one Validate accepts. Each run carries the
// per-session latency decomposition (Result.PerSession: own device
// time vs lock-wait vs queueing) and the striped-array section:
// member-device count, parity width, degraded flag and the per-device
// breakdown (Result.Devices/ParityDevices/Degraded/PerDevice).
const SchemaV3 = "sero-serving-bench/v3"

// Report is the BENCH_serving.json trajectory file: one schema tag and
// one Result per session count. Everything needed to re-run the
// identical workload — session count, namespace width, op budget,
// seed, and the full FS configuration — is embedded in each run's
// Config.
type Report struct {
	// Schema identifies the report format (SchemaV3).
	Schema string `json:"schema"`
	// Bench names the benchmark family ("serving").
	Bench string `json:"bench"`
	// Runs holds one measured trajectory point per configuration.
	Runs []Result `json:"runs"`
}

// NewReport assembles a versioned report from measured runs.
func NewReport(runs []Result) Report {
	return Report{Schema: SchemaV3, Bench: "serving", Runs: runs}
}

// Encode writes the report as indented JSON.
func (r Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport parses a report produced by Encode.
func DecodeReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("serve: parsing report: %w", err)
	}
	return r, nil
}

// Validate is the schema sanity check the CI gate runs over committed
// BENCH_*.json files: schema tag, at least one run, and for every run
// a non-zero op count, positive virtual time and throughput, the full
// reproduction config, and per-op latency entries whose percentiles
// are ordered (p50 ≤ p99 ≤ worst) and not all-zero — a kind with ops
// must carry either direct latency or a sync-amortized share, so a
// report whose buffered ops silently lost their flush attribution
// cannot anchor the regression gate.
func (r Report) Validate() error {
	if r.Schema != SchemaV3 {
		return fmt.Errorf("serve: schema %q, want %q", r.Schema, SchemaV3)
	}
	if r.Bench != "serving" {
		return fmt.Errorf("serve: bench %q, want serving", r.Bench)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("serve: report has no runs")
	}
	for i, run := range r.Runs {
		c := run.Config
		if c.Sessions <= 0 || c.Files <= 0 || c.Seed == 0 ||
			c.SegmentBlocks <= 0 || c.CheckpointBlocks <= 0 || c.DeviceBlocks <= 0 ||
			c.CheckpointEvery <= 0 {
			return fmt.Errorf("serve: run %d: incomplete reproduction config %+v", i, c)
		}
		if run.TotalOps == 0 {
			return fmt.Errorf("serve: run %d (sessions=%d): zero op count", i, c.Sessions)
		}
		if run.VirtualNS <= 0 || run.ThroughputOpsPerSec <= 0 {
			return fmt.Errorf("serve: run %d (sessions=%d): no virtual time recorded", i, c.Sessions)
		}
		if len(run.PerOp) == 0 {
			return fmt.Errorf("serve: run %d (sessions=%d): no per-op latency", i, c.Sessions)
		}
		var counted uint64
		for kind, st := range run.PerOp {
			if st.Count == 0 {
				return fmt.Errorf("serve: run %d: op %q has zero count", i, kind)
			}
			if st.P50NS > st.P99NS || st.P99NS > st.WorstNS || st.P50NS < 0 {
				return fmt.Errorf("serve: run %d: op %q percentiles disordered (p50=%d p99=%d worst=%d)",
					i, kind, st.P50NS, st.P99NS, st.WorstNS)
			}
			if st.WorstNS == 0 && st.SyncAmortizedNS == 0 {
				return fmt.Errorf("serve: run %d: op %q has %d ops but all-zero latency (no direct or sync-amortized cost)",
					i, kind, st.Count)
			}
			counted += st.Count
		}
		if counted != run.TotalOps {
			return fmt.Errorf("serve: run %d: per-op counts sum to %d, total says %d", i, counted, run.TotalOps)
		}
		if len(run.PerSession) != c.Sessions {
			return fmt.Errorf("serve: run %d: %d per-session entries for %d sessions",
				i, len(run.PerSession), c.Sessions)
		}
		var sessOps uint64
		for _, ss := range run.PerSession {
			sessOps += ss.Ops
			if ss.TotalNS < 0 || ss.DeviceNS < 0 || ss.LockWaitNS < 0 || ss.QueueNS < 0 {
				return fmt.Errorf("serve: run %d: session %d has negative latency component", i, ss.Session)
			}
			if ss.DeviceNS+ss.LockWaitNS+ss.QueueNS != ss.TotalNS {
				return fmt.Errorf("serve: run %d: session %d decomposition does not sum to its total (total=%d device=%d lockwait=%d queue=%d)",
					i, ss.Session, ss.TotalNS, ss.DeviceNS, ss.LockWaitNS, ss.QueueNS)
			}
		}
		if sessOps != run.TotalOps {
			return fmt.Errorf("serve: run %d: per-session ops sum to %d, total says %d", i, sessOps, run.TotalOps)
		}
		if err := validateArray(i, run); err != nil {
			return err
		}
	}
	return nil
}

// validateArray checks one run's striped-array section: member
// count, parity bound, a complete per-device breakdown for striped
// runs, the slowest-member virtual-time identity, and agreement
// between the degraded flag and the per-device failure marks.
func validateArray(i int, run Result) error {
	if run.Devices < 1 {
		return fmt.Errorf("serve: run %d: device count %d", i, run.Devices)
	}
	if run.ParityDevices < 0 || run.ParityDevices >= run.Devices {
		return fmt.Errorf("serve: run %d: %d parity members of %d devices", i, run.ParityDevices, run.Devices)
	}
	if len(run.PerDevice) == 0 {
		// The raw-device baseline carries no breakdown — legal only at
		// width 1, and never degraded.
		if run.Devices > 1 || run.Degraded {
			return fmt.Errorf("serve: run %d: %d devices (degraded=%v) without per-device breakdown",
				i, run.Devices, run.Degraded)
		}
		return nil
	}
	if len(run.PerDevice) != run.Devices {
		return fmt.Errorf("serve: run %d: %d per-device entries for %d devices",
			i, len(run.PerDevice), run.Devices)
	}
	failed := 0
	var maxClock int64
	for j, ds := range run.PerDevice {
		if ds.Device != j {
			return fmt.Errorf("serve: run %d: per-device entry %d labelled device %d", i, j, ds.Device)
		}
		if ds.ClockNS < 0 {
			return fmt.Errorf("serve: run %d: device %d negative clock", i, j)
		}
		if ds.ClockNS > maxClock {
			maxClock = ds.ClockNS
		}
		if ds.Failed {
			failed++
		}
	}
	if maxClock != run.VirtualNS {
		return fmt.Errorf("serve: run %d: virtual time %d is not the slowest member clock %d (slowest-member contract)",
			i, run.VirtualNS, maxClock)
	}
	if run.Degraded != (failed > 0) {
		return fmt.Errorf("serve: run %d: degraded flag %v disagrees with %d failed members", i, run.Degraded, failed)
	}
	if failed > run.ParityDevices {
		return fmt.Errorf("serve: run %d: %d failed members exceed %d parity", i, failed, run.ParityDevices)
	}
	return nil
}

// ValidateJSON decodes and validates raw report bytes — the one-call
// form tools/benchcheck uses.
func ValidateJSON(data []byte) error {
	r, err := DecodeReport(data)
	if err != nil {
		return err
	}
	return r.Validate()
}
