// Command benchcheck is the recorded-trajectory half of `make ci`: it
// validates committed BENCH_*.json files against their versioned
// schema (internal/serve.SchemaV3 for the serving bench),
// so a stale, truncated, or hand-edited trajectory fails the pipeline
// instead of silently anchoring a later regression diff. It re-checks
// shape only — it does not re-run the (minutes-long) benchmark; `make
// bench-serve` regenerates the numbers.
//
// With -diff it instead compares two trajectory reports — the ROADMAP-
// named regression diff: runs are matched by session count, member-
// device count and degraded flag, and every op kind's p50/p99/worst
// (and throughput) is printed as old → new with the relative change.
// Each session's own-device / lock-wait / queueing decomposition is
// diffed too, and when either run carries a per-device breakdown the
// member clocks, degraded-read and parity-write counters are diffed as
// well. Any schema but v3 is a hard error (exit 1).
//
// Usage:
//
//	benchcheck FILE [FILE...]
//	benchcheck -diff OLD.json NEW.json
package main

import (
	"fmt"
	"os"
	"sort"

	"sero/internal/serve"
)

func main() {
	if len(os.Args) >= 2 && os.Args[1] == "-diff" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchcheck -diff OLD.json NEW.json")
			os.Exit(2)
		}
		if err := diff(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck FILE [FILE...]  |  benchcheck -diff OLD.json NEW.json")
		os.Exit(2)
	}
	bad := 0
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			bad++
			continue
		}
		if err := serve.ValidateJSON(data); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("benchcheck: %s ok\n", path)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// load reads one report and enforces the schema key the diff is keyed
// on.
func load(path string) (serve.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return serve.Report{}, err
	}
	r, err := serve.DecodeReport(data)
	if err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if r.Schema != serve.SchemaV3 {
		return r, fmt.Errorf("%s: schema %q, want %q — refusing to diff an unknown schema",
			path, r.Schema, serve.SchemaV3)
	}
	return r, nil
}

// runKey matches runs across the two reports: session count plus the
// array geometry.
type runKey struct {
	sessions int
	devices  int
	degraded bool
}

func keyOf(r serve.Result) runKey {
	return runKey{sessions: r.Config.Sessions, devices: r.Devices, degraded: r.Degraded}
}

func (k runKey) String() string {
	s := fmt.Sprintf("sessions=%d", k.sessions)
	if k.devices > 1 {
		s += fmt.Sprintf(" devices=%d", k.devices)
	}
	if k.degraded {
		s += " degraded"
	}
	return s
}

// diff prints the per-kind latency and throughput deltas between two
// trajectory reports, matching runs by session count and array
// geometry.
func diff(oldPath, newPath string) error {
	oldRep, err := load(oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(newPath)
	if err != nil {
		return err
	}
	oldRuns := make(map[runKey]serve.Result, len(oldRep.Runs))
	for _, run := range oldRep.Runs {
		oldRuns[keyOf(run)] = run
	}
	for _, nr := range newRep.Runs {
		key := keyOf(nr)
		or, ok := oldRuns[key]
		if !ok {
			fmt.Printf("%s: only in %s\n", key, newPath)
			continue
		}
		delete(oldRuns, key)
		fmt.Printf("%s: throughput %11.0f → %11.0f ops/vsec  %+.1f%%\n",
			key, or.ThroughputOpsPerSec, nr.ThroughputOpsPerSec,
			pct(or.ThroughputOpsPerSec, nr.ThroughputOpsPerSec))
		kinds := make([]string, 0, len(nr.PerOp))
		for k := range nr.PerOp {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			ns := nr.PerOp[k]
			ost, ok := or.PerOp[k]
			if !ok {
				fmt.Printf("  %-8s only in %s\n", k, newPath)
				continue
			}
			fmt.Printf("  %-8s p50 %s  p99 %s  worst %s\n",
				k, span(ost.P50NS, ns.P50NS), span(ost.P99NS, ns.P99NS), span(ost.WorstNS, ns.WorstNS))
		}
		diffSessions(or, nr)
		diffDevices(or, nr)
	}
	keys := make([]runKey, 0, len(oldRuns))
	for k := range oldRuns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sessions != keys[j].sessions {
			return keys[i].sessions < keys[j].sessions
		}
		if keys[i].devices != keys[j].devices {
			return keys[i].devices < keys[j].devices
		}
		return !keys[i].degraded && keys[j].degraded
	})
	for _, k := range keys {
		fmt.Printf("%s: only in %s\n", k, oldPath)
	}
	return nil
}

// diffDevices prints the v3 array-section deltas: the reconstruction
// and parity-write counters, then each member device's clock and write
// volume when both runs carry a matching per-device breakdown.
func diffDevices(or, nr serve.Result) {
	if len(nr.PerDevice) == 0 && len(or.PerDevice) == 0 {
		return
	}
	fmt.Printf("  array    degraded-reads %d → %d  reconstructed %d → %d  parity-writes %d → %d\n",
		or.DegradedReads, nr.DegradedReads,
		or.ReconstructedBlocks, nr.ReconstructedBlocks,
		or.ParityBlockWrites, nr.ParityBlockWrites)
	if len(or.PerDevice) != len(nr.PerDevice) {
		fmt.Printf("  per-device: breakdown width changed (%d → %d members)\n",
			len(or.PerDevice), len(nr.PerDevice))
		return
	}
	for i, nd := range nr.PerDevice {
		od := or.PerDevice[i]
		mark := ""
		if nd.Failed {
			mark = "  FAILED"
		}
		fmt.Printf("  device %-3d clock %s  writes %d → %d%s\n",
			nd.Device, span(od.ClockNS, nd.ClockNS), od.MagneticWrites, nd.MagneticWrites, mark)
	}
}

// diffSessions prints the per-session latency-decomposition deltas.
func diffSessions(or, nr serve.Result) {
	old := make(map[int]serve.SessionStats, len(or.PerSession))
	for _, ss := range or.PerSession {
		old[ss.Session] = ss
	}
	for _, ns := range nr.PerSession {
		os, ok := old[ns.Session]
		if !ok {
			fmt.Printf("  session %-3d only in new report\n", ns.Session)
			continue
		}
		fmt.Printf("  session %-3d device %s  lock-wait %s  queue %s\n",
			ns.Session, span(os.DeviceNS, ns.DeviceNS),
			span(os.LockWaitNS, ns.LockWaitNS), span(os.QueueNS, ns.QueueNS))
	}
}

// span renders one old → new nanosecond pair with its relative change.
func span(oldNS, newNS int64) string {
	return fmt.Sprintf("%11.3fms → %11.3fms (%+.1f%%)",
		float64(oldNS)/1e6, float64(newNS)/1e6, pct(float64(oldNS), float64(newNS)))
}

// pct is the relative change after vs before in percent (0 when the
// before value is 0).
func pct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before * 100
}
