package experiments

import (
	"strings"
	"testing"
	"time"

	"sero/internal/physics"
)

func TestRunFig2AllMatch(t *testing.T) {
	res := RunFig2()
	if !res.AllMatch {
		t.Fatalf("state machine deviates from Fig 2:\n%s", res.Table())
	}
	if len(res.Transitions) != 9 { // 3 states × 3 ops
		t.Fatalf("%d transitions", len(res.Transitions))
	}
	if !strings.Contains(res.Table(), "all transitions match: true") {
		t.Fatal("table rendering")
	}
}

func TestRunFig3Layout(t *testing.T) {
	res, err := RunFig3(3)
	if err != nil {
		t.Fatal(err)
	}
	// The 64-byte record = 512 cells, all HU or UH.
	if res.Block0HU+res.Block0UH != 512 {
		t.Fatalf("written cells %d, want 512", res.Block0HU+res.Block0UH)
	}
	if res.Block0UU == 0 {
		t.Fatal("no unused cells — metadata space missing")
	}
	if res.MetaSpaceBits != 3584 {
		t.Fatalf("meta space %d bits, paper says 3584", res.MetaSpaceBits)
	}
	if !res.DataBlocksMagnetic {
		t.Fatal("data blocks not magnetically readable after heat")
	}
	if res.MaxAdjacentHeated > 2 {
		t.Fatalf("adjacent heated dots %d > 2", res.MaxAdjacentHeated)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestFigTablesRender(t *testing.T) {
	f7 := Fig7Table(physics.RunFig7(1))
	if !strings.Contains(f7, "as-grown") || !strings.Contains(f7, "700") {
		t.Fatalf("Fig7 table:\n%s", f7)
	}
	f8 := Fig8Table(physics.RunFig8(1))
	if !strings.Contains(f8, "peak at 2θ") {
		t.Fatal("Fig8 table")
	}
	f9 := Fig9Table(physics.RunFig9(1))
	if !strings.Contains(f9, "41") {
		t.Fatalf("Fig9 table:\n%s", f9)
	}
}

func TestRunE1Contract(t *testing.T) {
	res, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if res.ErbOverMrb < 5 {
		t.Fatalf("erb/mrb ratio %.2f < 5", res.ErbOverMrb)
	}
	if res.EwsOverMws <= 1 {
		t.Fatalf("ews/mws ratio %.2f not > 1", res.EwsOverMws)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE2Shape(t *testing.T) {
	res, err := RunE2(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aware) != 5 || len(res.Oblivious) != 5 {
		t.Fatalf("points %d/%d", len(res.Aware), len(res.Oblivious))
	}
	// At the highest heated load, the aware policy must strand nothing
	// and stay bimodal; the oblivious policy must strand live blocks.
	lastAware := res.Aware[len(res.Aware)-1]
	lastObl := res.Oblivious[len(res.Oblivious)-1]
	if lastAware.StrandedBlocks != 0 {
		t.Fatalf("aware policy stranded %d blocks", lastAware.StrandedBlocks)
	}
	if lastAware.Bimodality != 1 {
		t.Fatalf("aware bimodality %g", lastAware.Bimodality)
	}
	if lastObl.StrandedBlocks == 0 {
		t.Fatal("oblivious policy stranded nothing — ablation is vacuous")
	}
	if lastObl.Bimodality >= 1 {
		t.Fatalf("oblivious bimodality %g, expected < 1", lastObl.Bimodality)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE3Shape(t *testing.T) {
	res, err := RunE3(11)
	if err != nil {
		t.Fatal(err)
	}
	if res.AwareBimodality != 1 {
		t.Fatalf("aware bimodality %g", res.AwareBimodality)
	}
	if res.ObliviousBimodality >= res.AwareBimodality {
		t.Fatalf("oblivious %g not worse than aware %g",
			res.ObliviousBimodality, res.AwareBimodality)
	}
	// The oblivious histogram must have mass in the mid buckets.
	mid := 0
	for i := 1; i < 9; i++ {
		mid += res.ObliviousHistogram[i]
	}
	if mid == 0 {
		t.Fatal("oblivious run produced no mixed segments")
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE4AllCovered(t *testing.T) {
	res, err := RunE4(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 11 {
		t.Fatalf("%d attacks", len(res.Results))
	}
	for _, a := range res.Results {
		if !a.Prevented && !a.Detected {
			t.Errorf("attack %s: %s", a.Name, a.Notes)
		}
	}
	if !strings.Contains(res.Table(), "bulk-erase") {
		t.Fatal("table rendering")
	}
}

func TestRunE5Shape(t *testing.T) {
	res, err := RunE5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Overhead halves with each N; heat cost grows with line size.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].OverheadFraction >= res.Points[i-1].OverheadFraction {
			t.Fatal("overhead not decreasing")
		}
		if res.Points[i].HeatCost <= res.Points[i-1].HeatCost {
			t.Fatal("heat cost not increasing with line size")
		}
	}
	if res.WOMDotsPerBit >= res.ManchesterDotsPerBit {
		t.Fatal("WOM not denser than Manchester")
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE7Shape(t *testing.T) {
	res := RunE7(17)
	if len(res.Points) != 16 {
		t.Fatalf("%d points", len(res.Points))
	}
	byKey := make(map[[2]int]E7Point)
	for _, p := range res.Points {
		byKey[[2]int{int(p.NoiseSigma * 100), p.Retries}] = p
	}
	// More retries must not increase the miss rate (monotone per
	// noise level), and at 8 retries the miss rate must be small.
	for _, sigma := range []int{2, 5, 10, 20} {
		if byKey[[2]int{sigma, 8}].MissRate > byKey[[2]int{sigma, 1}].MissRate {
			t.Fatalf("σ=%d: retries made it worse", sigma)
		}
		if byKey[[2]int{sigma, 8}].MissRate > 0.01 {
			t.Fatalf("σ=%d: miss rate %g at 8 retries", sigma, byKey[[2]int{sigma, 8}].MissRate)
		}
	}
	// False positives must be negligible at the default SNR.
	if byKey[[2]int{5, 8}].FalseRate > 0.001 {
		t.Fatalf("false positive rate %g", byKey[[2]int{5, 8}].FalseRate)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE6Works(t *testing.T) {
	res, err := RunE6(19)
	if err != nil {
		t.Fatal(err)
	}
	if !res.VentiVerifyOK || !res.FossilVerifyOK || !res.FossilLookupOK {
		t.Fatalf("archival verification failed: %+v", res)
	}
	if res.VentiDeduped == 0 {
		t.Fatal("venti snapshots shared nothing")
	}
	if res.FossilHeated == 0 {
		t.Fatal("no fossil nodes heated")
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE8Ageing(t *testing.T) {
	res, err := RunE8(23)
	if err != nil {
		t.Fatal(err)
	}
	if res.RecordsUntilFull == 0 {
		t.Fatal("no records ingested")
	}
	// RO ratio must be monotone non-decreasing and end high.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].ReadOnlyRatio+1e-9 < res.Points[i-1].ReadOnlyRatio {
			t.Fatal("read-only ratio decreased")
		}
	}
	final := res.Points[len(res.Points)-1]
	if final.ReadOnlyRatio < 0.5 {
		t.Fatalf("device ended only %.2f read-only", final.ReadOnlyRatio)
	}
	if res.ShreddedRecords == 0 {
		t.Fatal("retention policy never shredded")
	}
	if !res.Decommissionable {
		t.Fatal("device not decommissionable after all periods lapsed")
	}
	if !res.EvidenceSurvives {
		t.Fatal("shredded records lost their evidence")
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE9DefectShape(t *testing.T) {
	res, err := RunE9(29)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Low defect rates must be fully absorbed by the ECC.
	if res.Points[0].SectorFailRate != 0 {
		t.Fatalf("0.05%% defects already failing: %+v", res.Points[0])
	}
	// Failure rate must be non-decreasing in defect rate.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].SectorFailRate+1e-9 < res.Points[i-1].SectorFailRate {
			t.Fatal("fail rate not monotone")
		}
	}
	// The top density must show measurable failures (the sweep spans
	// the margin).
	if res.Points[len(res.Points)-1].SectorFailRate == 0 {
		t.Fatal("sweep never reached the ECC limit")
	}
	// Defects must never be mistaken for electrical data.
	for _, p := range res.Points {
		if p.MisprobedHeated != 0 {
			t.Fatalf("defects probed as heated at rate %g", p.DefectRate)
		}
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE10PulseShape(t *testing.T) {
	res := RunE10()
	if len(res.Points) != 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	byTemp := make(map[float64]E10Point)
	for _, p := range res.Points {
		byTemp[p.PulseTempC] = p
	}
	// Below the mixing onset's equilibrium ceiling, no amount of
	// pulsing destroys the dot.
	if byTemp[550].PulsesToHeat != 0 {
		t.Fatalf("550 °C pulses destroyed the dot in %d", byTemp[550].PulsesToHeat)
	}
	// At 900 °C one pulse suffices.
	if byTemp[900].PulsesToHeat != 1 {
		t.Fatalf("900 °C needs %d pulses", byTemp[900].PulsesToHeat)
	}
	// Pulses-to-heat decreases with temperature (among achievable
	// ones).
	prev := 1 << 30
	for _, temp := range []float64{600, 650, 700, 800, 900} {
		n := byTemp[temp].PulsesToHeat
		if n == 0 || n > prev {
			t.Fatalf("pulses-to-heat not decreasing: %d at %g", n, temp)
		}
		prev = n
	}
	// Neighbour at the default 0.4 attenuation must never die.
	for _, p := range res.Points {
		if p.WritesUntilNeighborDead != 0 {
			t.Fatalf("neighbour dies after %d writes at %g °C", p.WritesUntilNeighborDead, p.PulseTempC)
		}
	}
	// Poor heat sinking (factor ≥ 0.7) must make neighbours mortal —
	// the §7 warning has to be visible in the model.
	last := res.Attenuation[len(res.Attenuation)-1]
	if last.Factor != 0.7 || last.WritesUntilNeighborDead == 0 {
		t.Fatalf("0.7 attenuation: %+v", last)
	}
	if msg := res.VerifyAgainstMedium(); msg != "" {
		t.Fatal(msg)
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE11BaselineComparison(t *testing.T) {
	res, err := RunE11()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 5 {
		t.Fatalf("%d technologies", len(res.Results))
	}
	byName := make(map[string]int)
	for i, r := range res.Results {
		byName[r.Technology] = i
	}
	sero := res.Results[byName["sero"]]
	// SERO: scoped freeze, rewrite physically possible, but DETECTED —
	// the only technology with all three.
	if !sero.FreezeScoped {
		t.Fatal("sero could not freeze a single record")
	}
	if !sero.RewriteSucceeded {
		t.Fatal("sero model resisted the raw rewrite — it should detect, not resist")
	}
	if !sero.Detected {
		t.Fatal("sero failed to detect the rewrite")
	}
	// No baseline detects.
	for _, name := range []string{"software-worm", "lto3-tape", "optical-worm", "fuse-disk"} {
		if res.Results[byName[name]].Detected {
			t.Errorf("%s claims detection", name)
		}
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE12ClusteringComparison(t *testing.T) {
	res, err := RunE12(37)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byKey := make(map[string]E12Row)
	for _, r := range res.Rows {
		key := r.Design
		if r.HeatAware {
			key += "-aware"
		} else {
			key += "-oblivious"
		}
		byKey[key] = r
	}
	// Both designs: aware placement is perfectly bimodal and verifies.
	for _, k := range []string{"lfs-aware", "ffs-aware"} {
		if byKey[k].Bimodality != 1 {
			t.Errorf("%s bimodality %g", k, byKey[k].Bimodality)
		}
	}
	// Both designs: oblivious placement degrades.
	for _, k := range []string{"lfs-oblivious", "ffs-oblivious"} {
		if byKey[k].Bimodality >= 1 {
			t.Errorf("%s bimodality %g, expected < 1", k, byKey[k].Bimodality)
		}
	}
	// Aware beats oblivious on the fragmentation/stranding metric
	// within each design.
	if byKey["lfs-aware"].Fragmentation >= byKey["lfs-oblivious"].Fragmentation {
		t.Error("lfs: aware not better on stranding")
	}
	if byKey["ffs-aware"].Fragmentation >= byKey["ffs-oblivious"].Fragmentation {
		t.Error("ffs: aware not better on fragmentation")
	}
	// Tamper evidence is policy-independent: everything verifies.
	for k, r := range byKey {
		if !r.VerifiedOK {
			t.Errorf("%s: heated files failed verification", k)
		}
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestRunE13ScrubTradeoff(t *testing.T) {
	res, err := RunE13(41)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Detection latency must grow with the interval; duty cycle must
	// shrink.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].DetectionLatency < res.Points[i-1].DetectionLatency {
			t.Fatal("latency not growing with interval")
		}
		if res.Points[i].AuditDutyCycle > res.Points[i-1].AuditDutyCycle {
			t.Fatal("duty cycle not shrinking with interval")
		}
	}
	// Latency is bounded by one interval plus one audit pass.
	for _, p := range res.Points {
		if p.DetectionLatency > p.Interval+time.Second {
			t.Fatalf("latency %v far exceeds interval %v", p.DetectionLatency, p.Interval)
		}
	}
	if res.Table() == "" {
		t.Fatal("empty table")
	}
}
