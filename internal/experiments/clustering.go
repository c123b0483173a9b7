package experiments

import (
	"fmt"
	"strings"

	"sero/internal/device"
	"sero/internal/ffs"
	"sero/internal/lfs"
	"sero/internal/sim"
)

// E12 — clustering across file-system designs (§4.1's closing
// argument): the bimodality property is not an LFS artifact; an
// FFS-style update-in-place file system with cluster groups benefits
// from exactly the same heat-aware placement policy. One workload
// (write a population, heat half, churn the rest) runs over four
// configurations: {LFS, FFS} × {heat-aware, oblivious}.

// E12Row is one configuration's outcome.
type E12Row struct {
	// Design names the file system: "LFS" or "FFS".
	Design string
	// HeatAware reports whether the heat-aware placement policy ran.
	HeatAware bool
	// Bimodality is the share of segments (LFS) or cluster groups
	// (FFS) that are almost all heated or almost all unheated.
	Bimodality float64
	// Fragmentation is design-specific: LFS reports stranded blocks in
	// pinned segments; FFS reports the free-space fragmentation of
	// live groups. Both are normalised so 0 is ideal.
	Fragmentation float64
	// VerifiedOK reports that every heated file still verifies.
	VerifiedOK bool
}

// E12Result is the 2×2 comparison.
type E12Result struct {
	// Rows holds one row per design and policy.
	Rows []E12Row
}

const (
	e12Files      = 8
	e12FileBlocks = 3
)

// RunE12 runs the shared scenario over all four configurations.
func RunE12(seed uint64) (E12Result, error) {
	var res E12Result
	for _, aware := range []bool{true, false} {
		row, err := runE12LFS(seed, aware)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, aware := range []bool{true, false} {
		row, err := runE12FFS(seed, aware)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func e12Content(rng *sim.RNG) []byte {
	data := make([]byte, e12FileBlocks*device.DataBytes)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	return data
}

func runE12LFS(seed uint64, aware bool) (E12Row, error) {
	row := E12Row{Design: "lfs", HeatAware: aware}
	fs, err := lfs.New(quietDevice(2048), lfs.Params{
		SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: aware, ReserveSegments: 2,
	})
	if err != nil {
		return row, err
	}
	rng := sim.NewRNG(seed)
	// Heats interleave with ordinary writes, as they would in
	// production (snapshots are taken while the system runs) — this is
	// exactly the arrival pattern that separates the two policies.
	for i := 0; i < e12Files; i++ {
		name := fmt.Sprintf("f%d", i)
		ino, cerr := fs.Create(name, 0)
		if cerr != nil {
			return row, cerr
		}
		if werr := fs.WriteFile(ino, e12Content(rng)); werr != nil {
			return row, werr
		}
		if serr := fs.Sync(); serr != nil {
			return row, serr
		}
		if i%2 == 0 {
			if _, herr := fs.HeatFile(name); herr != nil {
				return row, herr
			}
		}
	}
	// Churn the unheated half.
	for round := 0; round < 10; round++ {
		i := 1 + 2*rng.Intn(e12Files/2)
		ino, lerr := fs.Lookup(fmt.Sprintf("f%d", i))
		if lerr != nil {
			return row, lerr
		}
		if werr := fs.WriteFile(ino, e12Content(rng)); werr != nil {
			return row, werr
		}
		if serr := fs.Sync(); serr != nil {
			return row, serr
		}
	}
	row.Bimodality = fs.Bimodality()
	stranded, pinnedCap := 0, 0
	for _, s := range fs.Segments() {
		if s.State == lfs.SegPinned {
			stranded += s.LiveBlocks + s.DeadBlocks
			pinnedCap += s.Blocks
		}
	}
	if pinnedCap > 0 {
		row.Fragmentation = float64(stranded) / float64(pinnedCap)
	}
	row.VerifiedOK = true
	for i := 0; i < e12Files; i += 2 {
		reps, verr := fs.VerifyFile(fmt.Sprintf("f%d", i))
		if verr != nil || !reps[0].OK {
			row.VerifiedOK = false
		}
	}
	return row, nil
}

func runE12FFS(seed uint64, aware bool) (E12Row, error) {
	row := E12Row{Design: "ffs", HeatAware: aware}
	fs, err := ffs.New(quietDevice(2048), ffs.Params{GroupBlocks: 32, HeatAware: aware})
	if err != nil {
		return row, err
	}
	rng := sim.NewRNG(seed)
	for i := 0; i < e12Files; i++ {
		name := fmt.Sprintf("f%d", i)
		if cerr := fs.Create(name, 0); cerr != nil {
			return row, cerr
		}
		if werr := fs.WriteFile(name, e12Content(rng)); werr != nil {
			return row, werr
		}
		if i%2 == 0 {
			if _, herr := fs.HeatFile(name); herr != nil {
				return row, herr
			}
		}
	}
	for round := 0; round < 10; round++ {
		i := 1 + 2*rng.Intn(e12Files/2)
		if werr := fs.WriteFile(fmt.Sprintf("f%d", i), e12Content(rng)); werr != nil {
			return row, werr
		}
	}
	row.Bimodality = fs.Bimodality()
	row.Fragmentation = fs.FragmentationIndex()
	row.VerifiedOK = true
	for i := 0; i < e12Files; i += 2 {
		rep, verr := fs.VerifyFile(fmt.Sprintf("f%d", i))
		if verr != nil || !rep.OK {
			row.VerifiedOK = false
		}
	}
	return row, nil
}

// Table renders the 2×2 comparison.
func (r E12Result) Table() string {
	var b strings.Builder
	b.WriteString("E12 — heat clustering across FS designs (§4.1: the bimodality argument holds for FFS too)\n")
	b.WriteString("design  policy      bimodality  frag/stranded  heated-files-verify\n")
	for _, row := range r.Rows {
		policy := "aware"
		if !row.HeatAware {
			policy = "oblivious"
		}
		fmt.Fprintf(&b, "%-7s %-11s %10.2f %14.2f %20v\n",
			row.Design, policy, row.Bimodality, row.Fragmentation, row.VerifiedOK)
	}
	b.WriteString("both designs: aware placement keeps clusters modal; oblivious mixes and fragments\n")
	return b.String()
}
