// Command serosim regenerates every figure and experiment of the paper
// "Towards Tamper-evident Storage on Patterned Media" (FAST 2008).
//
// Usage:
//
//	serosim [-seed N] [experiment ...]
//
// -seed N is the deterministic seed for stochastic experiments
// (default 42).
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
//
// Example invocation:
//
//	serosim -seed 7 e4-attacks e13-scrub
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
	flag.Parse()

	all := []string{
		"fig2", "fig3", "fig7", "fig8", "fig9",
		"e1-latency", "e2-gc", "e3-bimodal", "e4-attacks",
		"e5-overhead", "e6-archival", "e7-erb", "e8-aging", "e9-defects", "e10-pulse", "e11-worm", "e12-ffs", "e13-scrub",
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
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
