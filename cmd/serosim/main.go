// Command serosim regenerates every figure and experiment of the paper
// "Towards Tamper-evident Storage on Patterned Media" (FAST 2008).
//
// Usage:
//
//	serosim [-seed N] [-j workers] [-ckpt-every N] [-sessions N] [experiment ...]
//
// Flags (all validated, nonsensical values are rejected rather than
// silently clamped):
//
//	-seed N       deterministic seed for stochastic experiments (default 42)
//	-j N          worker fan-out for e17-mount-scale's fanned walk;
//	              must be positive, 1 = serial (default 4)
//	-ckpt-every N checkpoint interval in appended blocks, swept by
//	              e15-recovery; must be positive, 1 = checkpoint every
//	              sync (default 256)
//	-sessions N   concurrent sessions for e22-striping's serving runs;
//	              must be positive (default 4)
//
// With no arguments every experiment runs. Experiments:
//
//	fig2        bit state machine
//	fig3        heated-line medium layout
//	fig7        anisotropy vs annealing temperature
//	fig8        low-angle XRD (superlattice peak)
//	fig9        high-angle XRD (CoPt(111) peak)
//	e1-latency  sector operation latency contract
//	e2-gc       cleaner cost vs heated fraction (aware vs oblivious)
//	e3-bimodal  segment bimodality under the snapshot workload
//	e4-attacks  §5 attack detection matrix
//	e5-overhead hash overhead and heat cost vs line size
//	e6-archival Venti + fossilized index on SERO
//	e7-erb      electrical-read reliability vs noise and retries
//	e8-aging    device lifetime: WMRM→RO ageing with retention shredding
//	e9-defects  media defect tolerance of the ECC and heat-probe
//	e10-pulse   heat-pulse engineering: temperature/dwell vs destruction
//	e11-worm    §2 WORM technology comparison under the rewrite attack
//	e12-ffs     heat clustering across FS designs (LFS vs FFS-style)
//	e13-scrub   background-scrub tradeoff: detection latency vs overhead
//	e15-recovery  roll-forward recovery: sync latency vs replay time
//	e17-mount-scale  mount cost vs namespace width: the checkpointed
//	              liveness table (O(segments + replayed tail)) against
//	              the full inode walk (O(files)), serial and fanned
//	              over -j worker planes
//	e21-online-verify  continuous verification: detection latency of a
//	              random live tamper vs the incremental auditor's
//	              2*ceil(L/batch) bound across batch sizes, and the
//	              audit tax on the serving mix (virtual-time identical
//	              audit-on vs audit-off, shadow device cost reported)
//	e22-striping  the striped multi-volume array: serving throughput
//	              across widths 1/2/4 with Reed–Solomon parity,
//	              width-1 virtual-time identity with the raw device,
//	              degraded serving with one member lost (reads
//	              reconstructed from the parity group), and auditor
//	              self-healing of a tampered heated line
//
// Example invocations:
//
//	serosim -ckpt-every 64 e15-recovery    # denser checkpoints, shorter replay
//	serosim -j 4 e17-mount-scale           # fanned-walk column at 4 workers
//	serosim -sessions 8 e22-striping       # serving runs with 8 sessions
package main

import (
	"flag"
	"fmt"
	"os"

	"sero/internal/experiments"
	"sero/internal/physics"
)

func main() {
	seed := flag.Uint64("seed", 42, "deterministic seed for stochastic experiments")
	workers := flag.Int("j", 4, "worker fan-out for e17-mount-scale's fanned walk (1 = serial)")
	ckptEvery := flag.Int("ckpt-every", 256, "extra checkpoint interval (appended blocks) swept by e15-recovery")
	sessions := flag.Int("sessions", 4, "concurrent sessions for e22-striping's serving runs")
	flag.Parse()
	// Nonsensical values are rejected, not silently clamped: a typo'd
	// experiment configuration should fail loudly, not quietly measure
	// something else.
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "serosim: -j must be positive (got %d)\n", *workers)
		os.Exit(2)
	}
	if *ckptEvery <= 0 {
		fmt.Fprintf(os.Stderr, "serosim: -ckpt-every must be positive (got %d)\n", *ckptEvery)
		os.Exit(2)
	}
	if *sessions <= 0 {
		fmt.Fprintf(os.Stderr, "serosim: -sessions must be positive (got %d)\n", *sessions)
		os.Exit(2)
	}
	fsFlags = fsFlagValues{workers: *workers, ckptEvery: *ckptEvery, sessions: *sessions}

	all := []string{
		"fig2", "fig3", "fig7", "fig8", "fig9",
		"e1-latency", "e2-gc", "e3-bimodal", "e4-attacks",
		"e5-overhead", "e6-archival", "e7-erb", "e8-aging", "e9-defects", "e10-pulse", "e11-worm", "e12-ffs", "e13-scrub",
		"e15-recovery", "e17-mount-scale", "e21-online-verify", "e22-striping",
	}
	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = all
	}
	for _, name := range wanted {
		if err := run(name, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "serosim: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func run(name string, seed uint64) error {
	switch name {
	case "fig2":
		fmt.Print(experiments.RunFig2().Table())
	case "fig3":
		res, err := experiments.RunFig3(3)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "fig7":
		fmt.Print(experiments.Fig7Table(physics.RunFig7(seed)))
	case "fig8":
		fmt.Print(experiments.Fig8Table(physics.RunFig8(seed)))
	case "fig9":
		fmt.Print(experiments.Fig9Table(physics.RunFig9(seed)))
	case "e1-latency":
		res, err := experiments.RunE1()
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e2-gc":
		res, err := experiments.RunE2(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e3-bimodal":
		res, err := experiments.RunE3(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e4-attacks":
		res, err := experiments.RunE4(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e5-overhead":
		res, err := experiments.RunE5()
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e6-archival":
		res, err := experiments.RunE6(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e7-erb":
		fmt.Print(experiments.RunE7(seed).Table())
	case "e8-aging":
		res, err := experiments.RunE8(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e9-defects":
		res, err := experiments.RunE9(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e10-pulse":
		res := experiments.RunE10()
		if msg := res.VerifyAgainstMedium(); msg != "" {
			return fmt.Errorf("cross-check failed: %s", msg)
		}
		fmt.Print(res.Table())
	case "e11-worm":
		res, err := experiments.RunE11()
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e12-ffs":
		res, err := experiments.RunE12(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e13-scrub":
		res, err := experiments.RunE13(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e15-recovery":
		res, err := experiments.RunE15(192, 96, fsFlags.ckptEvery)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e17-mount-scale":
		res, err := experiments.RunE17(fsFlags.workers, 8)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e21-online-verify":
		res, err := experiments.RunE21(seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	case "e22-striping":
		res, err := experiments.RunE22(fsFlags.sessions, seed)
		if err != nil {
			return err
		}
		fmt.Print(res.Table())
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// fsFlagValues carries the -j/-ckpt-every/-sessions settings into run
// without threading them through every experiment's arguments.
type fsFlagValues struct {
	workers   int
	ckptEvery int
	sessions  int
}

var fsFlags = fsFlagValues{workers: 4, ckptEvery: 256, sessions: 4}
