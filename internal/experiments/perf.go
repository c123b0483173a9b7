package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/manchester"
	"sero/internal/medium"
	"sero/internal/sim"
	"sero/internal/workload"
)

// quietDevice builds a deterministic device for performance runs.
func quietDevice(blocks int) *device.Device {
	return device.New(device.QuietParams(blocks))
}

// E1Result measures the §3 operation-latency contract on the simulated
// device.
type E1Result struct {
	// MRSPerBlock is the virtual time of one magnetic block read.
	MRSPerBlock time.Duration
	// MWSPerBlock is the virtual time of one magnetic block write.
	MWSPerBlock time.Duration
	// ERSPerDot is the virtual time of an electrical read per dot.
	ERSPerDot time.Duration
	// MRSPerDot is the virtual time of a magnetic read per dot.
	MRSPerDot time.Duration
	// EWSPerBlock is the virtual time of one electrical block write.
	EWSPerBlock time.Duration
	// ErbOverMrb is the per-dot ratio the paper bounds below by 5.
	ErbOverMrb float64
	// EwsOverMws is the sector-level electrical/magnetic write ratio.
	EwsOverMws float64
}

// RunE1 measures per-operation virtual latencies.
func RunE1() (E1Result, error) {
	dev := quietDevice(64)
	data := make([]byte, device.DataBytes)
	for i := range data {
		data[i] = byte(i)
	}
	var res E1Result

	clock := dev.Clock()
	t0 := clock.Now()
	const rounds = 16
	for pba := uint64(0); pba < rounds; pba++ {
		if err := dev.MWS(pba, data); err != nil {
			return res, err
		}
	}
	res.MWSPerBlock = (clock.Now() - t0) / rounds

	t0 = clock.Now()
	for pba := uint64(0); pba < rounds; pba++ {
		if _, err := dev.MRS(pba); err != nil {
			return res, err
		}
	}
	res.MRSPerBlock = (clock.Now() - t0) / rounds
	res.MRSPerDot = res.MRSPerBlock / device.DotsPerBlock

	payload := data[:device.HeatRecordBytes]
	t0 = clock.Now()
	for pba := uint64(32); pba < 32+rounds; pba++ {
		if err := dev.EWS(pba, payload); err != nil {
			return res, err
		}
	}
	res.EWSPerBlock = (clock.Now() - t0) / rounds

	t0 = clock.Now()
	for pba := uint64(32); pba < 32+rounds; pba++ {
		if _, err := dev.ERS(pba, device.HeatRecordBytes); err != nil {
			return res, err
		}
	}
	ersPerBlock := (clock.Now() - t0) / rounds
	res.ERSPerDot = ersPerBlock / time.Duration(device.HeatRecordBytes*16)

	res.ErbOverMrb = float64(res.ERSPerDot) / float64(res.MRSPerDot)
	res.EwsOverMws = float64(res.EWSPerBlock) / float64(res.MWSPerBlock)
	return res, nil
}

// Table renders E1.
func (r E1Result) Table() string {
	var b strings.Builder
	b.WriteString("E1 — sector operation latencies (virtual time)\n")
	fmt.Fprintf(&b, "mws: %10v/block   mrs: %10v/block\n", r.MWSPerBlock, r.MRSPerBlock)
	fmt.Fprintf(&b, "ews: %10v/block   ers: %10v/dot (mrs %v/dot)\n", r.EWSPerBlock, r.ERSPerDot, r.MRSPerDot)
	fmt.Fprintf(&b, "erb/mrb per-dot ratio: %.1f (paper: ≥5)\n", r.ErbOverMrb)
	fmt.Fprintf(&b, "ews/mws per-block ratio: %.1f (paper: ewb slower than mwb)\n", r.EwsOverMws)
	return b.String()
}

// E2Point is one row of the cleaner experiment.
type E2Point struct {
	// HeatedFiles counts the files frozen before the churn phase.
	HeatedFiles int
	// HeatedFraction is HeatedFiles over the file population.
	HeatedFraction float64
	// CopiedBlocks is the cleaner bandwidth spent.
	CopiedBlocks uint64
	// WriteCost is virtual time per written block during the churn
	// phase.
	WriteCost time.Duration
	// Bimodality of the segment population at the end.
	Bimodality float64
	// StrandedBlocks counts blocks lost inside pinned segments: live
	// blocks locked in place plus dead blocks that can never be
	// reclaimed because the cleaner must skip the segment.
	StrandedBlocks int
}

// E2Result compares heat-aware and heat-oblivious cleaning as the
// heated fraction grows.
type E2Result struct {
	// Aware holds the heat-aware file system's rows.
	Aware []E2Point
	// Oblivious holds the heat-oblivious file system's rows.
	Oblivious []E2Point
}

// RunE2 sweeps the number of heated files and measures cleaner cost
// under both policies.
func RunE2(seed uint64) (E2Result, error) {
	var res E2Result
	for _, aware := range []bool{true, false} {
		for _, heats := range []int{0, 4, 8, 16, 24} {
			pt, err := runE2Point(seed, aware, heats)
			if err != nil {
				return res, err
			}
			if aware {
				res.Aware = append(res.Aware, pt)
			} else {
				res.Oblivious = append(res.Oblivious, pt)
			}
		}
	}
	return res, nil
}

func runE2Point(seed uint64, aware bool, heats int) (E2Point, error) {
	// Sized so the churn phase actually exhausts free segments and
	// forces cleaning — the regime where the policies diverge.
	dev := quietDevice(1024)
	fs, err := lfs.New(dev, lfs.Params{
		SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: aware, ReserveSegments: 2,
	})
	if err != nil {
		return E2Point{}, err
	}
	rng := sim.NewRNG(seed)

	// Phase 1: create a file population and heat some of it.
	const files = 32
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("f-%03d", i)
		ino, cerr := fs.Create(name, 0)
		if cerr != nil {
			return E2Point{}, cerr
		}
		data := make([]byte, 4*device.DataBytes)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		if werr := fs.WriteFile(ino, data); werr != nil {
			return E2Point{}, werr
		}
		if serr := fs.Sync(); serr != nil {
			return E2Point{}, serr
		}
		if i < heats {
			if _, herr := fs.HeatFile(name); herr != nil {
				return E2Point{}, herr
			}
		}
	}

	// Phase 2: churn the unheated files with a skewed partial-rewrite
	// mix (hot files absorb most writes, cold blocks stay live), so
	// victim segments hold a live/dead mix and the cleaner must copy.
	clock := dev.Clock()
	t0 := clock.Now()
	copied0 := fs.Stats().CleanerCopied
	var written uint64
	cold := files - heats
	hot := cold / 5
	if hot < 1 {
		hot = 1
	}
	for round := 0; round < 150; round++ {
		var i int
		if rng.Float64() < 0.9 {
			i = heats + rng.Intn(hot)
		} else {
			i = heats + hot + rng.Intn(cold-hot)
		}
		ino, lerr := fs.Lookup(fmt.Sprintf("f-%03d", i))
		if lerr != nil {
			return E2Point{}, lerr
		}
		data := make([]byte, device.DataBytes)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		blk := rng.Intn(4)
		if werr := fs.Write(ino, uint64(blk*device.DataBytes), data); werr != nil {
			return E2Point{}, werr
		}
		if serr := fs.Sync(); serr != nil {
			return E2Point{}, serr
		}
		written++
	}
	fs.Clean(fs.FreeSegments() + 2)

	stranded := 0
	for _, s := range fs.Segments() {
		if s.State == lfs.SegPinned {
			stranded += s.LiveBlocks + s.DeadBlocks
		}
	}
	st := fs.Stats()
	return E2Point{
		HeatedFiles:    heats,
		HeatedFraction: float64(st.HeatedLineBlock) / float64(dev.Blocks()),
		CopiedBlocks:   st.CleanerCopied - copied0,
		WriteCost:      (clock.Now() - t0) / time.Duration(written),
		Bimodality:     fs.Bimodality(),
		StrandedBlocks: stranded,
	}, nil
}

// Table renders E2.
func (r E2Result) Table() string {
	var b strings.Builder
	b.WriteString("E2 — cleaner cost vs heated fraction (heat-aware vs oblivious)\n")
	b.WriteString("policy     heated  GC-copied  write-cost/blk  bimodality  stranded-blocks\n")
	row := func(policy string, p E2Point) {
		fmt.Fprintf(&b, "%-10s %6d %10d %15v %11.2f %16d\n",
			policy, p.HeatedFiles, p.CopiedBlocks, p.WriteCost, p.Bimodality, p.StrandedBlocks)
	}
	for _, p := range r.Aware {
		row("aware", p)
	}
	for _, p := range r.Oblivious {
		row("oblivious", p)
	}
	b.WriteString("paper §4.1: clustering ⇒ bimodal segments, no stranded space, stable write cost\n")
	return b.String()
}

// E3Result measures segment bimodality under the snapshot workload.
type E3Result struct {
	// AwareBimodality is the heat-aware file system's bimodality.
	AwareBimodality float64
	// ObliviousBimodality is the heat-oblivious file system's.
	ObliviousBimodality float64
	// AwareHistogram counts the heat-aware file system's used
	// segments by heated share of their used space, in ten equal
	// buckets from 0 to 1.
	AwareHistogram [10]int
	// ObliviousHistogram is AwareHistogram for the heat-oblivious one.
	ObliviousHistogram [10]int
}

// RunE3 runs the database-snapshot workload under both policies and
// histograms per-segment heated fractions.
func RunE3(seed uint64) (E3Result, error) {
	var res E3Result
	for _, aware := range []bool{true, false} {
		dev := quietDevice(16384)
		fs, err := lfs.New(dev, lfs.Params{
			SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: aware, ReserveSegments: 2,
		})
		if err != nil {
			return res, err
		}
		w := workload.Snapshot{Tables: 3, TableBlocks: 4, Updates: 300, SnapshotEvery: 60, Affinity: 1}
		if _, err := workload.Apply(fs, w.Generate(sim.NewRNG(seed))); err != nil {
			return res, err
		}
		var hist [10]int
		for _, s := range fs.Segments() {
			if s.State == lfs.SegFree {
				continue
			}
			used := s.HeatedBlocks + s.LiveBlocks + s.DeadBlocks
			if used == 0 {
				continue
			}
			f := float64(s.HeatedBlocks) / float64(used)
			bkt := int(f * 9.999)
			hist[bkt]++
		}
		if aware {
			res.AwareBimodality = fs.Bimodality()
			res.AwareHistogram = hist
		} else {
			res.ObliviousBimodality = fs.Bimodality()
			res.ObliviousHistogram = hist
		}
	}
	return res, nil
}

// Table renders E3.
func (r E3Result) Table() string {
	var b strings.Builder
	b.WriteString("E3 — segment heated-fraction distribution (snapshot workload)\n")
	b.WriteString("bucket:      0-10% ... 90-100%\n")
	fmt.Fprintf(&b, "aware:      %v  bimodality %.2f\n", r.AwareHistogram, r.AwareBimodality)
	fmt.Fprintf(&b, "oblivious:  %v  bimodality %.2f\n", r.ObliviousHistogram, r.ObliviousBimodality)
	b.WriteString("paper §4.1: clustering yields only mostly-heated and mostly-unheated segments\n")
	return b.String()
}

// E5Point is one row of the hash-overhead experiment.
type E5Point struct {
	// LogN is the line size exponent: the line spans 2^LogN blocks.
	LogN uint8
	// OverheadFraction is hash blocks per line (1/2^N).
	OverheadFraction float64
	// HeatCost is the virtual time of the heat operation.
	HeatCost time.Duration
}

// E5Result sweeps line sizes, plus the Manchester/WOM coding
// comparison of §8.
type E5Result struct {
	// Points holds one row per line size.
	Points []E5Point
	// ManchesterDotsPerBit and WOMDotsPerBit compare coding density.
	ManchesterDotsPerBit float64
	// WOMDotsPerBit is the WOM code's dots per bit.
	WOMDotsPerBit float64
	// Measured record footprints: dots actually heated for one heat
	// record under each coding, and whether a cell-level tamper code
	// (HH) exists.
	ManchesterRecordDots int
	// WOMRecordDots is the WOM-coded heat record's length in dots.
	WOMRecordDots int
	// ManchesterCellTamper reports that Manchester coding has a
	// cell-level tamper code (HH).
	ManchesterCellTamper bool
	// WOMCellTamper reports the same for the WOM code (it has none).
	WOMCellTamper bool
	// ManchesterHeatedCount counts the dots one Manchester-coded heat
	// record heated on the medium.
	ManchesterHeatedCount int
	// WOMHeatedCount counts the dots one WOM-coded heat record heated.
	WOMHeatedCount int
}

// RunE5 measures space overhead and heat cost versus line size.
func RunE5() (E5Result, error) {
	var res E5Result
	for logN := uint8(1); logN <= 8; logN++ {
		blocks := 1 << (logN + 1)
		if blocks < 64 {
			blocks = 64
		}
		dev := quietDevice(blocks)
		data := make([]byte, device.DataBytes)
		n := uint64(1) << logN
		for pba := uint64(0); pba < n; pba++ {
			for i := range data {
				data[i] = byte(pba + uint64(i))
			}
			if err := dev.MWS(pba, data); err != nil {
				return res, err
			}
		}
		t0 := dev.Clock().Now()
		if _, err := dev.HeatLine(0, logN); err != nil {
			return res, err
		}
		res.Points = append(res.Points, E5Point{
			LogN:             logN,
			OverheadFraction: 1 / float64(n),
			HeatCost:         dev.Clock().Now() - t0,
		})
	}
	res.ManchesterDotsPerBit = manchester.DotsPerBit(false)
	res.WOMDotsPerBit = manchester.DotsPerBit(true)
	res.ManchesterRecordDots = manchester.EncodedDots(device.HeatRecordBytes)
	res.WOMRecordDots = manchester.WOMEncodedDots(device.HeatRecordBytes)
	res.ManchesterCellTamper = true
	res.WOMCellTamper = false

	// Measure the heated-dot footprint of a real heat record under
	// both codings on otherwise identical devices.
	for _, coding := range []device.Coding{device.CodingManchester, device.CodingWOM} {
		dp := device.QuietParams(8)
		dp.Coding = coding
		dev := device.New(dp)
		data := make([]byte, device.DataBytes)
		for pba := uint64(0); pba < 4; pba++ {
			if err := dev.MWS(pba, data); err != nil {
				return res, err
			}
		}
		if _, err := dev.HeatLine(0, 2); err != nil {
			return res, err
		}
		if coding == device.CodingManchester {
			res.ManchesterHeatedCount = dev.Medium().HeatedCount()
		} else {
			res.WOMHeatedCount = dev.Medium().HeatedCount()
		}
	}
	return res, nil
}

// Table renders E5.
func (r E5Result) Table() string {
	var b strings.Builder
	b.WriteString("E5 — line-size sweep: hash space overhead and heat cost\n")
	b.WriteString("logN  blocks  overhead  heat-cost\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%4d %7d %8.3f%% %10v\n", p.LogN, 1<<p.LogN, p.OverheadFraction*100, p.HeatCost)
	}
	fmt.Fprintf(&b, "coding: Manchester %.2f dots/bit, Rivest–Shamir WOM %.2f dots/bit (2 writes)\n",
		r.ManchesterDotsPerBit, r.WOMDotsPerBit)
	fmt.Fprintf(&b, "record footprint: Manchester %d dots (%d heated), WOM %d dots (%d heated)\n",
		r.ManchesterRecordDots, r.ManchesterHeatedCount, r.WOMRecordDots, r.WOMHeatedCount)
	fmt.Fprintf(&b, "cell-level tamper code (HH): Manchester %v, WOM %v (WOM detection via record/hash only)\n",
		r.ManchesterCellTamper, r.WOMCellTamper)
	b.WriteString("paper §8: overhead negligible for large N; WOM codes for small N\n")
	return b.String()
}

// E7Point is one row of the erb-reliability experiment.
type E7Point struct {
	// NoiseSigma is the RMS read noise per sample (the medium's
	// ReadNoiseSigma).
	NoiseSigma float64
	// Retries is the number of erb retries per dot.
	Retries int
	// MissRate is the fraction of heated dots read as un-heated.
	MissRate float64
	// FalseRate is the fraction of healthy dots read as heated.
	FalseRate float64
}

// E7Result sweeps read noise and erb retries.
type E7Result struct {
	// Points holds one row per noise level and retry count.
	Points []E7Point
}

// RunE7 measures erb misdetection rates.
func RunE7(seed uint64) E7Result {
	var res E7Result
	const dots = 4000
	for _, sigma := range []float64{0.02, 0.05, 0.1, 0.2} {
		for _, retries := range []int{1, 2, 4, 8} {
			p := medium.DefaultParams(2, dots)
			p.ReadNoiseSigma = sigma
			p.Seed = seed
			m := medium.New(p)
			// Row 0: heated dots. Row 1: healthy dots.
			for i := 0; i < dots; i++ {
				m.EWB(i)
				m.MWB(dots+i, i%2 == 0)
			}
			misses, falses := 0, 0
			erb := func(i int) bool {
				for r := 0; r < retries; r++ {
					if m.ERB(i) {
						return true
					}
				}
				return false
			}
			for i := 0; i < dots; i++ {
				if !erb(i) {
					misses++
				}
				if erb(dots + i) {
					falses++
				}
			}
			res.Points = append(res.Points, E7Point{
				NoiseSigma: sigma,
				Retries:    retries,
				MissRate:   float64(misses) / dots,
				FalseRate:  float64(falses) / dots,
			})
		}
	}
	return res
}

// Table renders E7.
func (r E7Result) Table() string {
	var b strings.Builder
	b.WriteString("E7 — erb reliability vs read noise and retries\n")
	b.WriteString("noise σ  retries  miss-rate  false-positive\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%7.2f %8d %10.4f %15.5f\n", p.NoiseSigma, p.Retries, p.MissRate, p.FalseRate)
	}
	b.WriteString("misses fall geometrically with retries; false positives stay ≈0 below σ=0.2\n")
	return b.String()
}
