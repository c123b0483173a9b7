// Command perfbench is the repository's benchmark: it replays one
// workload (see workloads.go) for a fixed time and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A run repeats the workload — fresh device, set-up, measured phase,
// epilogue, close, mount and correctness check — until --seconds have
// passed, and reports each metric's median over the repetitions. All
// inputs derive from --seed. A traced run alternates untraced and
// traced repetitions: the traced ones give the per-layer numbers (host
// spans around every harness→lfs and decorator→device call, a CPU
// profile and heap sampling), the untraced ones the baseline for the
// tracing overhead and for the check that tracing leaves virtual time
// unchanged. A human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"sero/internal/trace"
	"sero/internal/workload"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics, in report order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"throughput_kops_per_vsec", "kops/vs"},
	{"read_p50_vus", "vus"},
	{"read_tail_vus", "vus"},
	{"sync_p50_vus", "vus"},
	{"sync_tail_vus", "vus"},
	{"append_cost_vus", "vus"},
	{"seal_p50_vms", "vms"},
	{"audit_round_vms", "vms"},
	{"mount_vms", "vms"},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 10, "how long to keep repeating the workload")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	outdir := flag.String("outdir", "", "directory for the traced run's span dump")
	flag.Parse()
	sp, err := specByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run repeats the workload until the time is up and aggregates.
func run(sp spec, seed uint64, seconds time.Duration, traced bool, outdir string) (*result, error) {
	// Inputs are generated once, outside every timed region, and
	// replayed unchanged by each repetition.
	pop, mix := sp.streams(seed)
	start := time.Now()
	var outs []*repOut
	for i := 0; ; i++ {
		out, err := runRep(sp, seed, pop, mix, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		// Start every repetition from the same heap.
		runtime.GC()
		debug.FreeOSMemory()
		if time.Since(start) >= seconds && (!traced || i >= 1) {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	kinds := map[workload.OpKind][2]int64{}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, why := range o.reasons {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", sp.name, why)
		}
		for k, c := range o.kinds {
			t := kinds[k]
			kinds[k] = [2]int64{t[0] + c[0], t[1] + c[1]}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench %s: mix ops failed/attempted:", sp.name)
	for _, k := range mixKinds {
		fmt.Fprintf(os.Stderr, " %s %d/%d", k, kinds[k][1], kinds[k][0])
	}
	fmt.Fprintln(os.Stderr)
	// One-session workloads are deterministic in virtual time: every
	// repetition, traced or not, must read the same virtual figures.
	if sp.sessions == 1 {
		for _, o := range outs[1:] {
			res.Attempted++
			for _, k := range virtualE2E {
				if o.virt[k] != outs[0].virt[k] {
					res.Failed++
					fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s differs between repetitions (traced %v): %v vs %v\n",
						sp.name, k, o.traced, o.virt[k], outs[0].virt[k])
					break
				}
			}
		}
	}
	res.Correct = res.Failed == 0

	var plain, tracedOuts []*repOut
	for _, o := range outs {
		if o.traced {
			tracedOuts = append(tracedOuts, o)
		} else {
			plain = append(plain, o)
		}
	}
	med := func(set []*repOut, get func(*repOut) (float64, bool)) float64 {
		var v []float64
		for _, o := range set {
			if x, ok := get(o); ok {
				v = append(v, x)
			}
		}
		return median(v)
	}
	if !traced {
		for _, m := range e2eUnits {
			v := med(plain, func(o *repOut) (float64, bool) { x, ok := o.e2e[m.name]; return x, ok })
			res.Metrics[m.name] = metric{v, m.unit}
		}
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"} // Maxrss is in KiB
	} else {
		names := map[string]bool{}
		for _, o := range tracedOuts {
			for k := range o.layer {
				names[k] = true
			}
		}
		for k := range names {
			v := med(tracedOuts, func(o *repOut) (float64, bool) { x, ok := o.layer[k]; return x, ok })
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		cpu := map[string]int64{}
		var samples int64
		for _, o := range tracedOuts {
			for k, n := range o.cpu {
				cpu[k] += n
				samples += n
			}
		}
		for _, l := range cpuLayers {
			res.Metrics["host.cpu_share."+l] = metric{ratio(float64(cpu[l]), float64(samples)), "share"}
		}
		hostPerOp := func(o *repOut) (float64, bool) { return o.e2e["host_us_per_op"], true }
		res.Metrics["host.trace_overhead_us_per_op"] = metric{med(tracedOuts, hostPerOp) - med(plain, hostPerOp), "us"}
		if outdir != "" {
			last := tracedOuts[len(tracedOuts)-1].spans
			if err := writeSpans(filepath.Join(outdir, fmt.Sprintf("spans-%s-seed%d.json", sp.name, seed)), last.tr); err != nil {
				return nil, err
			}
		}
	}
	report(sp, seed, len(plain), len(tracedOuts), time.Since(start), res)
	return res, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	suffix := func(s string) bool { return strings.HasSuffix(name, s) }
	switch {
	case suffix("_vms"):
		return "vms"
	case suffix("_vus"), suffix("_vus_per_line"):
		return "vus"
	case suffix(".vns"), suffix("_vns"):
		return "vns"
	case suffix("host_ns"), suffix("host_ns_per_block"):
		return "ns"
	case suffix("host_us"), suffix("_us_per_line"), strings.Contains(name, "_us_per_op"):
		return "us"
	case suffix("_mb"):
		return "MB"
	case suffix("_share"), suffix("_skew"):
		return "share"
	case suffix("_amp"), suffix("_per_sync"), suffix("_per_pass"), suffix("_per_data_block"):
		return "ratio"
	case suffix("bytes_per_device_block"):
		return "B"
	}
	return "count"
}

// writeSpans dumps the traced repetition's spans as JSON. Start and
// Dur are host nanoseconds since the repetition started.
func writeSpans(path string, tr *trace.Tracer) error {
	buf, err := json.Marshal(struct {
		Clock string
		Spans []trace.Span
	}{"host ns since the repetition started", tr.Spans()})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// report prints the run's metrics to standard error.
func report(sp spec, seed uint64, plain, traced int, took time.Duration, res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed %d: %d untraced + %d traced repetitions in %.1fs; %d sessions, %d files, %d ops per repetition\n",
		sp.name, seed, plain, traced, took.Seconds(), sp.sessions, sp.files, sp.ops)
	fmt.Fprintf(w, "  tails: read p%g, sync p%g\n", 100*sp.readTail, 100*sp.syncTail)
	fmt.Fprintf(w, "  op_error_rate %.6f (%d failed of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, m.Value, m.Unit)
	}
}
