package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"sero/internal/device"
)

func testStore(t testing.TB, blocks int) *Store {
	t.Helper()
	return NewStore(device.New(device.QuietParams(blocks)))
}

func block(seed byte) []byte {
	b := make([]byte, device.DataBytes)
	for i := range b {
		b[i] = seed ^ byte(i)
	}
	return b
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(16)
	s1, err := a.AllocAligned(4, 4)
	if err != nil || s1 != 0 {
		t.Fatalf("first alloc %d %v", s1, err)
	}
	s2, err := a.AllocAligned(4, 4)
	if err != nil || s2 != 4 {
		t.Fatalf("second alloc %d %v", s2, err)
	}
	if a.Free() != 8 {
		t.Fatalf("free %d", a.Free())
	}
	a.Release(s1, 4)
	if a.Free() != 12 {
		t.Fatalf("free after release %d", a.Free())
	}
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator(32)
	if _, err := a.AllocAligned(1, 1); err != nil { // occupy block 0
		t.Fatal(err)
	}
	s, err := a.AllocAligned(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s%8 != 0 || s == 0 {
		t.Fatalf("misaligned line at %d", s)
	}
}

func TestAllocatorNoSpace(t *testing.T) {
	a := NewAllocator(8)
	if _, err := a.AllocAligned(8, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocAligned(1, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err %v", err)
	}
}

func TestAllocatorReserveConflict(t *testing.T) {
	a := NewAllocator(8)
	if err := a.Reserve(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Reserve(3, 2); err == nil {
		t.Fatal("overlapping reserve accepted")
	}
	if err := a.Reserve(6, 4); err == nil {
		t.Fatal("out-of-range reserve accepted")
	}
}

func TestAllocatorInvariantProperty(t *testing.T) {
	// Property: free count always equals the unused bitmap population.
	f := func(ops []uint8) bool {
		a := NewAllocator(64)
		var held []Extent
		for _, op := range ops {
			if op%2 == 0 || len(held) == 0 {
				n := 1 << (op % 4) // 1,2,4,8
				s, err := a.AllocAligned(n, n)
				if err == nil {
					held = append(held, Extent{Start: s, Blocks: n})
				}
			} else {
				e := held[len(held)-1]
				held = held[:len(held)-1]
				a.Release(e.Start, e.Blocks)
			}
			count := 0
			for _, e := range a.FreeExtents() {
				count += e.Blocks
			}
			if count != a.Free() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationIndex(t *testing.T) {
	a := NewAllocator(16)
	if a.FragmentationIndex() != 0 {
		t.Fatal("fresh allocator fragmented")
	}
	// Carve holes: allocate all, release alternating pairs.
	if _, err := a.AllocAligned(16, 1); err != nil {
		t.Fatal(err)
	}
	a.Release(0, 2)
	a.Release(4, 2)
	a.Release(8, 2)
	fi := a.FragmentationIndex()
	if fi <= 0.5 {
		t.Fatalf("fragmentation %g, want > 0.5", fi)
	}
	if a.LargestFree() != 2 {
		t.Fatalf("largest free %d", a.LargestFree())
	}
}

func TestAllocatorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewAllocator(0) },
		func() { NewAllocator(4).AllocAligned(0, 1) },
		func() { NewAllocator(4).Release(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStoreWriteHeatVerify(t *testing.T) {
	s := testStore(t, 32)
	blocks := [][]byte{block(1), block(2), block(3)}
	start, logN, err := s.WriteLine(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if logN != 2 { // 3 data + 1 hash -> 4 blocks
		t.Fatalf("logN %d", logN)
	}
	for i, want := range blocks {
		got, rerr := s.Read(start + 1 + uint64(i))
		if rerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %d: %v", i, rerr)
		}
	}
	if _, err := s.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Verify(start)
	if err != nil || !rep.OK {
		t.Fatalf("verify %+v %v", rep, err)
	}
}

func TestStoreReleaseHeatedRefused(t *testing.T) {
	s := testStore(t, 16)
	start, logN, err := s.WriteLine([][]byte{block(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(start, 1<<logN); !errors.Is(err, ErrLineHeated) {
		t.Fatalf("release of heated line: %v", err)
	}
	// An unheated line can be released.
	start2, logN2, err := s.WriteLine([][]byte{block(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(start2, 1<<logN2); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleAges(t *testing.T) {
	s := testStore(t, 64)
	st0 := s.Lifecycle()
	if st0.ReadOnlyRatio != 0 || st0.FreeBlocks != 64 {
		t.Fatalf("fresh lifecycle %+v", st0)
	}
	for i := 0; i < 4; i++ {
		start, logN, err := s.WriteLine([][]byte{block(byte(i)), block(byte(i + 1)), block(byte(i + 2))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Heat(start, logN); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Lifecycle()
	if st.HeatedBlocks != 16 {
		t.Fatalf("heated blocks %d, want 16", st.HeatedBlocks)
	}
	if st.ReadOnlyRatio != 0.25 {
		t.Fatalf("RO ratio %g", st.ReadOnlyRatio)
	}
	if st.HeatEpoch != 4 {
		t.Fatalf("epoch %d", st.HeatEpoch)
	}
	if s.Decommissionable() {
		t.Fatal("quarter-full device decommissionable")
	}
}

func TestAuditCleanAndTampered(t *testing.T) {
	s := testStore(t, 32)
	var starts []uint64
	for i := 0; i < 3; i++ {
		start, logN, err := s.WriteLine([][]byte{block(byte(10 * i)), block(byte(10*i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Heat(start, logN); err != nil {
			t.Fatal(err)
		}
		starts = append(starts, start)
	}
	rep := s.Audit()
	if !rep.Clean() || len(rep.Reports) != 3 {
		t.Fatalf("clean audit failed: %s", rep.Summary())
	}

	// Tamper with the second line's data via raw medium access.
	evil := block(0xEE)
	if err := s.Device().(*device.Device).ForgeBlock(starts[1]+1, evil); err != nil {
		t.Fatal(err)
	}
	rep = s.Audit()
	if rep.Clean() || rep.TamperedLines != 1 {
		t.Fatalf("tampered audit: %s", rep.Summary())
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestRecoverRebuildsState(t *testing.T) {
	s := testStore(t, 32)
	start, logN, err := s.WriteLine([][]byte{block(5), block(6), block(7)})
	if err != nil {
		t.Fatal(err)
	}
	li, err := s.Heat(start, logN)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh store over the same device: recover from the medium.
	s2 := NewStore(s.Device())
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Lines) != 1 {
		t.Fatalf("recovery %+v", rep)
	}
	if rep.Lines[0].Record.Hash != li.Record.Hash {
		t.Fatal("recovered hash mismatch")
	}
	// The recovered line's blocks must be reserved: a fresh line
	// allocation must not land on them.
	got, err := s2.AllocLine(logN)
	if err != nil {
		t.Fatal(err)
	}
	if got == start {
		t.Fatal("recovered line handed out again")
	}
}

func TestWriteLineEmpty(t *testing.T) {
	s := testStore(t, 8)
	if _, _, err := s.WriteLine(nil); err == nil {
		t.Fatal("empty WriteLine accepted")
	}
}

func TestDecommissionable(t *testing.T) {
	s := testStore(t, 4)
	start, logN, err := s.WriteLine([][]byte{block(1), block(2), block(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	if !s.Decommissionable() {
		t.Fatal("fully heated device not decommissionable")
	}
}
