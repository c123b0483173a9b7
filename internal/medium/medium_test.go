package medium

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func quiet(rows, cols int) Params { return DefaultParams(rows, cols).Quiet() }

func TestWriteReadRoundTrip(t *testing.T) {
	m := New(quiet(4, 64))
	for i := 0; i < m.Dots(); i++ {
		bit := i%3 == 0
		m.MWB(i, bit)
		if got := m.MRB(i); got != bit {
			t.Fatalf("dot %d: wrote %v read %v", i, bit, got)
		}
	}
}

func TestRewriteManyTimes(t *testing.T) {
	// WMRM property: dots can be rewritten indefinitely before
	// heating.
	m := New(quiet(1, 8))
	for round := 0; round < 100; round++ {
		bit := round%2 == 0
		m.MWB(3, bit)
		if m.MRB(3) != bit {
			t.Fatalf("round %d lost data", round)
		}
	}
}

func TestStateMachineFig2(t *testing.T) {
	// Exhaustive check of the Fig 2 transitions.
	m := New(quiet(1, 4))

	// 0 --mwb 1--> 1
	m.MWB(0, false)
	if m.State(0) != Dot0 {
		t.Fatal("initial 0")
	}
	m.MWB(0, true)
	if m.State(0) != Dot1 {
		t.Fatal("0 -> 1")
	}
	// 1 --mwb 0--> 0
	m.MWB(0, false)
	if m.State(0) != Dot0 {
		t.Fatal("1 -> 0")
	}
	// self loops
	m.MWB(0, false)
	if m.State(0) != Dot0 {
		t.Fatal("0 -> 0")
	}
	m.MWB(0, true)
	m.MWB(0, true)
	if m.State(0) != Dot1 {
		t.Fatal("1 -> 1")
	}

	// 0 --ewb--> H and 1 --ewb--> H
	m.MWB(1, false)
	m.EWB(1)
	if m.State(1) != DotH {
		t.Fatal("0 -> H")
	}
	m.MWB(2, true)
	m.EWB(2)
	if m.State(2) != DotH {
		t.Fatal("1 -> H")
	}

	// H --ewb--> H (self loop)
	m.EWB(1)
	if m.State(1) != DotH {
		t.Fatal("H -> H under ewb")
	}
	// H --mwb--> H (one-way: no return to 0/1)
	m.MWB(1, true)
	m.MWB(1, false)
	if m.State(1) != DotH {
		t.Fatal("H must absorb mwb")
	}
}

func TestHeatedDotLosesSignal(t *testing.T) {
	// Fig 1: the read peak of a destroyed dot disappears.
	p := quiet(1, 2)
	m := New(p)
	m.MWB(0, true)
	if sig := m.MRBAnalog(0); sig < 0.9*p.SignalAmplitude {
		t.Fatalf("healthy dot signal %g", sig)
	}
	m.EWB(0)
	if sig := m.MRBAnalog(0); sig > 0.1*p.SignalAmplitude || sig < -0.1*p.SignalAmplitude {
		t.Fatalf("heated dot signal %g, want ~0", sig)
	}
}

func TestERBHealthyDot(t *testing.T) {
	m := New(quiet(1, 8))
	m.MWB(0, true)
	if m.ERB(0) {
		t.Fatal("healthy dot read as heated")
	}
	// erb must restore the original value (the two inversions).
	if !m.MRB(0) {
		t.Fatal("erb destroyed the stored bit")
	}
	m.MWB(1, false)
	if m.ERB(1) {
		t.Fatal("healthy 0 dot read as heated")
	}
	if m.MRB(1) {
		t.Fatal("erb destroyed the stored 0")
	}
}

func TestERBHeatedDotDetected(t *testing.T) {
	// With zero residual signal and zero noise, a heated dot reads a
	// constant, so erb detects it deterministically (inverse never
	// reads back).
	m := New(quiet(1, 4))
	m.EWB(0)
	if !m.ERB(0) {
		t.Fatal("heated dot not detected by erb")
	}
}

func TestERBHeatedDetectionUnderNoise(t *testing.T) {
	// With realistic noise the per-attempt detection probability is
	// below 1 but must be well above 1/2; the device retries.
	p := DefaultParams(1, 1000)
	p.Seed = 77
	m := New(p)
	for i := 0; i < 1000; i++ {
		m.EWB(i)
	}
	detected := 0
	for i := 0; i < 1000; i++ {
		if m.ERB(i) {
			detected++
		}
	}
	if detected < 600 {
		t.Fatalf("single-attempt detection %d/1000, want > 600", detected)
	}
}

func TestERBFalsePositiveRate(t *testing.T) {
	// Healthy dots at 20:1 SNR must essentially never read as heated.
	p := DefaultParams(1, 2000)
	p.Seed = 99
	m := New(p)
	for i := 0; i < 2000; i++ {
		m.MWB(i, i%2 == 0)
	}
	for i := 0; i < 2000; i++ {
		if m.ERB(i) {
			t.Fatalf("healthy dot %d read as heated", i)
		}
	}
}

func TestEWBIrreversibleProperty(t *testing.T) {
	f := func(writes []bool) bool {
		m := New(quiet(1, 2))
		m.EWB(0)
		for _, w := range writes {
			m.MWB(0, w)
		}
		return m.State(0) == DotH
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThermalCrosstalk(t *testing.T) {
	p := quiet(3, 3)
	p.ThermalCrosstalk = 1 // always disturb neighbours
	m := New(p)
	for i := 0; i < 9; i++ {
		m.MWB(i, true)
	}
	m.EWB(4) // centre dot
	// The four neighbours flipped but are still magnetic.
	for _, i := range []int{1, 3, 5, 7} {
		if m.State(i) != Dot0 {
			t.Fatalf("neighbour %d state %v", i, m.State(i))
		}
	}
	// Diagonals untouched.
	for _, i := range []int{0, 2, 6, 8} {
		if m.State(i) != Dot1 {
			t.Fatalf("diagonal %d disturbed", i)
		}
	}
}

func TestCrosstalkAtEdgeDoesNotPanic(t *testing.T) {
	p := quiet(2, 2)
	p.ThermalCrosstalk = 1
	m := New(p)
	m.EWB(0) // corner dot: two neighbours out of range
	if m.State(0) != DotH {
		t.Fatal("corner heat failed")
	}
}

func TestBulkEraseSparesHeatedEvidence(t *testing.T) {
	// §5.2: a degausser clears magnetic data but heated dots remain —
	// the evidence survives.
	p := quiet(1, 100)
	m := New(p)
	for i := 0; i < 100; i++ {
		m.MWB(i, true)
		if i%10 == 0 {
			m.EWB(i)
		}
	}
	m.BulkErase()
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			if m.State(i) != DotH {
				t.Fatalf("heated dot %d lost evidence", i)
			}
		}
	}
	// Magnetic data must be randomised: not all dots still read 1.
	ones := 0
	for i := 0; i < 100; i++ {
		if i%10 != 0 && m.MRB(i) {
			ones++
		}
	}
	if ones == 90 {
		t.Fatal("bulk erase did not disturb magnetic data")
	}
}

func TestStuckDots(t *testing.T) {
	m := New(quiet(1, 4))
	m.SetStuck(0, StuckUp)
	m.MWB(0, false)
	if !m.MRB(0) {
		t.Fatal("stuck-up dot read 0")
	}
	m.SetStuck(1, StuckDown)
	m.MWB(1, true)
	if m.MRB(1) {
		t.Fatal("stuck-down dot read 1")
	}
	m.SetStuck(2, StuckDead)
	if sig := m.MRBAnalog(2); sig != 0 {
		t.Fatalf("dead dot signal %g", sig)
	}
	if m.Stuck(2) != StuckDead {
		t.Fatal("stuck kind not recorded")
	}
	m.SetStuck(0, StuckNone)
	m.MWB(0, false)
	if m.MRB(0) {
		t.Fatal("cleared stuck dot still pinned")
	}
}

func TestCorruptMagnetic(t *testing.T) {
	m := New(quiet(1, 2))
	m.MWB(0, true)
	m.CorruptMagnetic(0)
	if m.MRB(0) {
		t.Fatal("corruption did not flip the bit")
	}
	m.EWB(1)
	m.CorruptMagnetic(1) // no-op on heated dots
	if m.State(1) != DotH {
		t.Fatal("corrupting a heated dot changed its state")
	}
}

func TestHeatedCount(t *testing.T) {
	m := New(quiet(2, 8))
	if m.HeatedCount() != 0 {
		t.Fatal("fresh medium has heated dots")
	}
	m.EWB(0)
	m.EWB(5)
	m.EWB(5) // idempotent
	if got := m.HeatedCount(); got != 2 {
		t.Fatalf("heated count %d, want 2", got)
	}
}

func TestDensityMatchesPaper(t *testing.T) {
	// 100 nm pitch → 10 Gbit/cm² (paper §6).
	m := New(quiet(100, 100))
	d := m.DensityGbitPerCM2()
	if d < 9.9 || d > 10.1 {
		t.Fatalf("density %g Gbit/cm², want 10", d)
	}
}

// TestRowFootprint bounds the host memory of a healthy row. Host
// memory per simulated block is one row in the device's standard
// geometry (Cols = 4736 dots = 74 words), so a full sled of half a
// million blocks must stay within ~640 B per block: 592 B of packed
// magnetisation plus the row's nil overlay.
func TestRowFootprint(t *testing.T) {
	const rows, cols, perRow = 4096, 4736, 640
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(DefaultParams(rows, cols))
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("New grew the heap by %.1f B per row", float64(grew)/rows)
	if grew > rows*perRow {
		t.Fatalf("New grew the heap by %d B, %.0f B per row; want at most %d",
			grew, float64(grew)/rows, perRow)
	}
}

// overlayBytes is the memory held by the medium's overlay records.
func overlayBytes(m *Medium) int {
	n := 0
	for _, ov := range m.overlay {
		n += len(ov) * int(unsafe.Sizeof(overlayDot{}))
	}
	return n
}

// TestSealedLineOverlayBound bounds the overlay one sealed line costs.
// Sealing heats dots of the line's hash block only (one row), and the
// heat spills into the rows above and below, so a line of any length
// overlays at most three rows: 3 × Cols × 8 B, about 111 KiB in the
// standard geometry.
func TestSealedLineOverlayBound(t *testing.T) {
	const rows, cols = 16, 4736
	if got := unsafe.Sizeof(overlayDot{}); got != 8 {
		t.Fatalf("overlay record is %d bytes, want 8", got)
	}
	m := New(DefaultParams(rows, cols))
	// A Manchester-coded 64-byte heat record after the 128-dot frame
	// header heats one dot of each of its 1024 cells.
	for cell := 0; cell < 64*8*2; cell++ {
		m.EWB(m.Index(8, 128+2*cell+cell%2))
	}
	if got, bound := overlayBytes(m), 3*cols*8; got > bound || got == 0 {
		t.Fatalf("sealed line overlay %d B, want (0, %d]", got, bound)
	}
	for _, row := range []int{0, 6, 10, 15} {
		if m.overlay[row] != nil {
			t.Fatalf("row %d away from the seal has an overlay", row)
		}
	}
	// Replacing the damaged rows returns them to the healthy layout.
	m.ReplaceRegion(m.Index(7, 0), m.Index(10, 0))
	if got := overlayBytes(m); got != 0 {
		t.Fatalf("overlay %d B after replacing the sealed rows", got)
	}
}

func TestGeometryPanics(t *testing.T) {
	for _, p := range []Params{
		{Rows: 0, Cols: 5, SignalAmplitude: 1},
		{Rows: 5, Cols: -1, SignalAmplitude: 1},
		{Rows: 5, Cols: 5, SignalAmplitude: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v did not panic", p)
				}
			}()
			New(p)
		}()
	}
}

func TestOutOfRangeDotPanics(t *testing.T) {
	m := New(quiet(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range dot access did not panic")
		}
	}()
	m.MRB(4)
}

func TestIndexMapping(t *testing.T) {
	m := New(quiet(3, 5))
	if m.Index(0, 0) != 0 || m.Index(2, 4) != 14 || m.Index(1, 2) != 7 {
		t.Fatal("row-major mapping broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-matrix index did not panic")
		}
	}()
	m.Index(3, 0)
}
