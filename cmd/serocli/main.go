// Command serocli runs a scripted tour of the SERO device: it writes
// files through the heat-aware LFS, heats one, attacks the medium as
// the §5 insider would, and shows the audit catching it. It is the
// quickest way to see the whole stack working end to end.
//
// Usage:
//
//	serocli [-blocks N] [-j workers] [-writeback N] [-ckpt-every N] [-clean-watermark N]
//	serocli bench-serve [-files N] [-ops N] [-sessions LIST] [-out FILE] [...]
//	serocli trace [-files N] [-ops N] [-sessions N] [-j N] [-buffer N] [-out FILE]
//
// Flags (all validated, nonsensical values are rejected rather than
// silently clamped):
//
//	-blocks N          device size in 512-byte blocks (default 2048)
//	-j N               audit and cleaner worker fan-out; must be
//	                   positive, 1 = serial (default 1)
//	-writeback N       group-commit granularity in blocks; must be 0
//	                   (whole segments) or positive, 1 = block-at-a-time
//	                   (default 0)
//	-ckpt-every N      checkpoint interval in appended blocks; must be
//	                   positive, 1 = checkpoint every sync (default 128)
//	-clean-watermark N free-segment threshold that arms the background
//	                   cleaner goroutine; must be 0 (foreground-only
//	                   cleaning, the default) or positive
//
// The bench-serve subcommand records the serving-tier macro-benchmark:
// for each session count in -sessions it replays the zipfian read-mostly
// mix (internal/workload.Mix) over a -files-wide namespace from that
// many concurrent sessions against one FS, and writes the measured
// trajectory — per-op virtual-time latency percentiles, sustained
// throughput, and the full reproduction config — as a versioned JSON
// report (internal/serve.SchemaV3) to -out. Its own flags:
//
//	-files N      total namespace width (default 100000)
//	-ops N        total mix-op budget, population on top (default 32768)
//	-sessions L   comma-separated session counts (default "1,4,16")
//	-file-blocks N, -zipf F, -sync-every N, -burst-every N, -burst-len N
//	              workload shape (defaults: the DefaultMix blend)
//	-seed N       RNG seed deriving every session stream (default 42)
//	-writeback N, -ckpt-every N, -clean-watermark N, -j N
//	              FS knobs as for the tour (bench defaults:
//	              ckpt-every 65536, j 4 — the parallel write path,
//	              cleaner and mount fan out over 4 worker planes)
//	-affinity-classes N
//	              heat-affinity classes the sessions spread over
//	              (default 4; 1 = every append through one frontier,
//	              the pre-fan-out baseline)
//	-audit-every N
//	              background audit cadence in appended blocks
//	              (default 0 = continuous verification off; audit work
//	              is off-clock, the counters report its shadow cost)
//	-heat-files N extra files frozen into heated lines before the mix
//	              so the auditor has a population to sweep (default 0)
//	-devices L    comma-separated member-device widths to sweep
//	              (default "0": the raw single sled; N >= 1 replays the
//	              same mix over an N-member striped array, so one report
//	              holds the width trajectory)
//	-parity N     Reed–Solomon parity members for the striped widths,
//	              applied per width when it fits (parity < devices) and
//	              dropped otherwise — a "0,1,4"-style sweep keeps its
//	              parity-free raw and width-1 points (default 0)
//	-out FILE     report path (default BENCH_serving.json; use
//	              BENCH_serving_audit.json for the audit-armed run)
//
// The trace subcommand runs one traced serving run and exports the
// span stream as a Chrome trace_event JSON file loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: each session and each
// device worker plane appears as its own named track on the virtual
// timeline, with per-op lock-wait and device time in the event args.
// Its flags:
//
//	-files N, -ops N, -sessions N, -seed N, -j N
//	              workload and FS shape (defaults 512 files, 2048 ops,
//	              4 sessions, seed 42, 4 worker planes)
//	-buffer N     span-buffer cap (0 = 65536); overflow is counted,
//	              never blocking
//	-out FILE     Chrome JSON path (default trace.json)
//
// Example invocations:
//
//	serocli                                  # defaults, serial
//	serocli -blocks 4096 -j 4 -writeback 16  # batched writes, fanned-out audit
//	serocli -j 4 -clean-watermark 8          # cleaning off the foreground lock
//	serocli bench-serve                      # the committed BENCH_serving.json (~10 min)
//	serocli bench-serve -files 2048 -ops 4096 -sessions 1,2,4 -out /tmp/b.json
//	serocli bench-serve -devices 1,4 -parity 1 -out BENCH_serving.json
//	serocli bench-serve -audit-every 64 -heat-files 64 -out BENCH_serving_audit.json
//	serocli trace -out trace.json           # then open in ui.perfetto.dev
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sero"
	"sero/internal/serve"
	"sero/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench-serve" {
		if err := benchServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serocli: bench-serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := traceCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serocli: trace:", err)
			os.Exit(1)
		}
		return
	}
	blocks := flag.Int("blocks", 2048, "device size in 512-byte blocks")
	workers := flag.Int("j", 1, "audit and cleaner concurrency (worker count; 1 = serial)")
	writeback := flag.Int("writeback", 0, "group-commit granularity in blocks (1 = block-at-a-time, 0 = whole segments)")
	ckptEvery := flag.Int("ckpt-every", 128, "checkpoint interval in appended blocks (1 = checkpoint every sync)")
	cleanWM := flag.Int("clean-watermark", 0, "free-segment threshold arming the background cleaner (0 = foreground-only cleaning)")
	flag.Parse()
	// Nonsensical values are rejected with a clear error rather than
	// silently clamped by the library.
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "serocli: -j must be positive (got %d)\n", *workers)
		os.Exit(2)
	}
	if *writeback < 0 {
		fmt.Fprintf(os.Stderr, "serocli: -writeback must be 0 (whole segments) or positive (got %d)\n", *writeback)
		os.Exit(2)
	}
	if *ckptEvery <= 0 {
		fmt.Fprintf(os.Stderr, "serocli: -ckpt-every must be positive (got %d)\n", *ckptEvery)
		os.Exit(2)
	}
	if *cleanWM < 0 {
		fmt.Fprintf(os.Stderr, "serocli: -clean-watermark must be 0 (off) or positive (got %d)\n", *cleanWM)
		os.Exit(2)
	}
	if err := run(*blocks, *workers, *writeback, *ckptEvery, *cleanWM); err != nil {
		fmt.Fprintln(os.Stderr, "serocli:", err)
		os.Exit(1)
	}
}

func run(blocks, workers, writeback, ckptEvery, cleanWM int) error {
	dev := sero.Open(sero.Options{Blocks: blocks, Quiet: true, Concurrency: workers})
	fs, err := sero.NewFS(dev, sero.FSOptions{
		SegmentBlocks:   32,
		WritebackBlocks: writeback,
		CheckpointEvery: ckptEvery,
		HeatAware:       true,
		Concurrency:     workers,
		CleanWatermark:  cleanWM,
	})
	if err != nil {
		return err
	}
	defer fs.Close()

	fmt.Println("== 1. normal WMRM operation ==")
	ledger, err := fs.Create("ledger.db", 0)
	if err != nil {
		return err
	}
	for day := 1; day <= 3; day++ {
		entry := bytes.Repeat([]byte(fmt.Sprintf("day-%d transactions; ", day)), 40)
		if err := fs.Write(ledger, uint64((day-1)*len(entry)), entry); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	fmt.Println("ledger.db written and rewritten freely (write-many)")

	fmt.Println("\n== 2. audit snapshot: heat the ledger ==")
	res, err := fs.HeatFile("ledger.db")
	if err != nil {
		return err
	}
	fmt.Printf("ledger.db frozen into line %d (%d blocks); hash %x...\n",
		res.Line.Start, res.Line.Blocks(), res.Line.Record.Hash[:8])

	fmt.Println("\n== 3. the file stays readable at full speed ==")
	content, err := fs.ReadFile(ledger)
	if err != nil {
		return err
	}
	fmt.Printf("read back %d bytes magnetically\n", len(content))

	fmt.Println("\n== 4. a dishonest CEO rewrites history (raw access) ==")
	target := res.Line.Start + 2
	forged := make([]byte, sero.BlockSize)
	copy(forged, "day-2 transactions never happened")
	if err := dev.RawDevice().ForgeBlock(target, forged); err != nil {
		return err
	}
	fmt.Println("block", target, "rewritten with a perfectly consistent forged frame")

	fmt.Println("\n== 5. the audit ==")
	fmt.Print(dev.Audit().Summary())

	st := dev.Lifecycle()
	fmt.Printf("lifecycle: %d/%d blocks read-only (%.1f%%), virtual time %v\n",
		st.HeatedBlocks, st.TotalBlocks, st.ReadOnlyRatio*100, st.VirtualTime)
	fst := fs.Stats()
	fmt.Printf("durability: %d syncs acked by %d summary records + %d checkpoints (ckpt-every=%d blocks)\n",
		fst.Syncs, fst.JournalRecords, fst.Checkpoints, ckptEvery)
	fmt.Printf("cleaner: %d passes (%d background), %d blocks copied, %d stale moves dropped (clean-watermark=%d)\n",
		fst.CleanerPasses, fst.CleanerBgRuns, fst.CleanerCopied, fst.CleanerStaleMoves, cleanWM)
	return nil
}

// parseSessions parses the -sessions "1,4,16" list.
func parseSessions(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-sessions entry %q: want a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sessions list is empty")
	}
	return out, nil
}

// benchServe runs the serving-tier macro-benchmark and records the
// trajectory report.
func benchServe(args []string) error {
	fl := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	files := fl.Int("files", 100000, "total namespace width (files), partitioned over sessions")
	ops := fl.Int("ops", 32768, "total mix-op budget (population phase on top)")
	sessionsList := fl.String("sessions", "1,4,16", "comma-separated session counts to sweep")
	fileBlocks := fl.Int("file-blocks", 0, "per-file size cap in blocks (0 = DefaultMix)")
	zipf := fl.Float64("zipf", -1, "file-popularity skew theta in [0,1) (-1 = DefaultMix)")
	syncEvery := fl.Int("sync-every", 0, "ops per sync (0 = DefaultMix)")
	burstEvery := fl.Int("burst-every", 0, "ops between append bursts (0 = DefaultMix)")
	burstLen := fl.Int("burst-len", 0, "appends per burst (0 = DefaultMix)")
	seed := fl.Uint64("seed", 42, "RNG seed deriving every session stream")
	writeback := fl.Int("writeback", 0, "group-commit granularity in blocks (0 = whole segments)")
	ckptEvery := fl.Int("ckpt-every", 1<<16, "checkpoint interval in appended blocks")
	cleanWM := fl.Int("clean-watermark", 0, "background-cleaner threshold (0 = foreground-only)")
	workers := fl.Int("j", 4, "FS worker-plane fan-out (sync flush, cleaner, mount; 1 = serial)")
	classes := fl.Int("affinity-classes", 4, "heat-affinity classes the sessions spread over (1 = single frontier)")
	auditEvery := fl.Int("audit-every", 0, "background audit cadence in appended blocks (0 = continuous verification off)")
	heatFiles := fl.Int("heat-files", 0, "extra files frozen into heated lines before the mix (the audit population; 0 = none)")
	devicesList := fl.String("devices", "0", "comma-separated member-device widths to sweep (0 = the raw single sled, N >= 1 = an N-member striped array)")
	parity := fl.Int("parity", 0, "Reed–Solomon parity members for striped widths; applied per width when it fits (parity < devices), 0 otherwise")
	out := fl.String("out", "BENCH_serving.json", "report output path")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	counts, err := parseSessions(*sessionsList)
	if err != nil {
		return err
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be nonzero (the report schema treats 0 as missing)")
	}
	if *workers <= 0 {
		return fmt.Errorf("-j must be positive (got %d)", *workers)
	}
	if *classes <= 0 || *classes > 256 {
		return fmt.Errorf("-affinity-classes must be in [1,256] (got %d)", *classes)
	}
	if *auditEvery < 0 {
		return fmt.Errorf("-audit-every must be 0 (off) or positive (got %d)", *auditEvery)
	}
	if *heatFiles < 0 {
		return fmt.Errorf("-heat-files must be 0 (none) or positive (got %d)", *heatFiles)
	}
	widths, err := parseDevices(*devicesList)
	if err != nil {
		return err
	}
	if *parity < 0 {
		return fmt.Errorf("-parity must be 0 (none) or positive (got %d)", *parity)
	}

	var runs []serve.Result
	for _, n := range counts {
		for _, d := range widths {
			res, err := benchServeRun(n, d, *files, *ops, *seed, *parity, benchKnobs{
				fileBlocks: *fileBlocks, zipf: *zipf, syncEvery: *syncEvery,
				burstEvery: *burstEvery, burstLen: *burstLen,
				writeback: *writeback, ckptEvery: *ckptEvery, cleanWM: *cleanWM,
				workers: *workers, classes: *classes,
				auditEvery: *auditEvery, heatFiles: *heatFiles,
			})
			if err != nil {
				return err
			}
			runs = append(runs, res)
		}
	}

	rep := serve.NewReport(runs)
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("refusing to record an invalid report: %w", err)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := rep.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("bench-serve: wrote %s (%d runs, schema %s)\n", *out, len(runs), rep.Schema)
	return nil
}

// benchKnobs bundles the workload- and FS-shape flags one bench-serve
// run inherits.
type benchKnobs struct {
	fileBlocks, syncEvery, burstEvery, burstLen int
	writeback, ckptEvery, cleanWM, workers      int
	classes, auditEvery, heatFiles              int
	zipf                                        float64
}

// benchServeRun measures one (sessions, devices) trajectory point.
// Width 0 is the raw single sled; widths >= 1 run a striped array, with
// -parity applied when it fits the width (parity < devices) and no
// parity otherwise — so one sweep can mix a parity-striped wide run
// with the parity-free width-1 equivalence point.
func benchServeRun(n, d, files, ops int, seed uint64, parity int, k benchKnobs) (serve.Result, error) {
	cfg := serve.DefaultConfig(n, files, ops)
	cfg.Seed = seed
	if k.fileBlocks > 0 {
		cfg.FileBlocks = k.fileBlocks
	}
	if k.zipf >= 0 {
		cfg.ZipfTheta = k.zipf
	}
	if k.syncEvery > 0 {
		cfg.SyncEvery = k.syncEvery
	}
	if k.burstEvery > 0 {
		cfg.BurstEvery = k.burstEvery
	}
	if k.burstLen > 0 {
		cfg.BurstLen = k.burstLen
	}
	cfg.WritebackBlocks = k.writeback
	cfg.CheckpointEvery = k.ckptEvery
	cfg.CleanWatermark = k.cleanWM
	cfg.Concurrency = k.workers
	cfg.AffinityClasses = k.classes
	cfg.AuditEvery = k.auditEvery
	cfg.HeatFiles = k.heatFiles
	cfg.Devices = d
	if d >= 1 && parity < d {
		cfg.ParityDevices = parity
	}
	geom := "raw device"
	if d >= 1 {
		geom = fmt.Sprintf("devices=%d parity=%d", d, cfg.ParityDevices)
	}
	fmt.Printf("bench-serve: sessions=%d files=%d ops=%d %s ...\n", n, files, ops, geom)
	res, err := serve.Run(cfg, nil)
	if err != nil {
		return res, fmt.Errorf("sessions=%d %s: %w", n, geom, err)
	}
	rd, sy := res.PerOp["read"], res.PerOp["sync"]
	fmt.Printf("bench-serve: sessions=%d %s: %d ops, %.1f kops/vsec, read p50/p99 %d/%d ns, sync p99 %d ns\n",
		n, geom, res.TotalOps, res.ThroughputOpsPerSec/1000, rd.P50NS, rd.P99NS, sy.P99NS)
	if k.auditEvery > 0 {
		fmt.Printf("bench-serve: sessions=%d: audit steps=%d rounds=%d lines-checked=%d findings=%d shadow=%dns (off-clock)\n",
			n, res.AuditSteps, res.AuditRounds, res.AuditLinesChecked, res.AuditFindings, res.AuditDeviceNS)
	}
	if d >= 1 && cfg.ParityDevices > 0 {
		fmt.Printf("bench-serve: sessions=%d %s: parity-writes=%d\n", n, geom, res.ParityBlockWrites)
	}
	return res, nil
}

// parseDevices parses the -devices "0,4" width list (0 = raw single
// sled, N >= 1 = an N-member striped array).
func parseDevices(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("-devices entry %q: want a non-negative integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-devices list is empty")
	}
	return out, nil
}

// traceCmd runs one traced serving run and writes the span stream as
// Chrome trace_event JSON.
func traceCmd(args []string) error {
	fl := flag.NewFlagSet("trace", flag.ExitOnError)
	files := fl.Int("files", 512, "total namespace width (files), partitioned over sessions")
	ops := fl.Int("ops", 2048, "total mix-op budget (population phase on top)")
	sessions := fl.Int("sessions", 4, "concurrent client sessions")
	seed := fl.Uint64("seed", 42, "RNG seed deriving every session stream")
	workers := fl.Int("j", 4, "FS worker-plane fan-out (1 = serial)")
	buffer := fl.Int("buffer", 0, "span-buffer cap (0 = 65536)")
	out := fl.String("out", "trace.json", "Chrome trace_event JSON output path")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	if *sessions <= 0 || *workers <= 0 {
		return fmt.Errorf("-sessions and -j must be positive")
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be nonzero")
	}

	cfg := serve.DefaultConfig(*sessions, *files, *ops)
	cfg.Seed = *seed
	cfg.Concurrency = *workers
	tr := trace.New(*buffer)
	res, err := serve.Run(cfg, tr)
	if err != nil {
		return err
	}
	doc, err := trace.ChromeJSON(tr.Spans(), tr.Dropped())
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d ops over %v of virtual time; %d spans (%d dropped) -> %s\n",
		res.TotalOps, time.Duration(res.VirtualNS), tr.Len(), tr.Dropped(), *out)
	fmt.Printf("trace: open it in https://ui.perfetto.dev or chrome://tracing\n")
	return nil
}
