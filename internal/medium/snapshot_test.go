package medium

import (
	"testing"
	"testing/quick"
)

func TestSnapshotRoundTrip(t *testing.T) {
	p := DefaultParams(4, 64)
	m := New(p)
	for i := 0; i < m.Dots(); i += 3 {
		m.MWB(i, i%2 == 0)
	}
	m.EWB(7)
	m.EWB(100)
	m.SetStuck(12, StuckDead)

	got, err := RestoreSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.Params() != p {
		t.Fatalf("params %+v != %+v", got.Params(), p)
	}
	for i := 0; i < m.Dots(); i++ {
		if got.State(i) != m.State(i) {
			t.Fatalf("dot %d state %v != %v", i, got.State(i), m.State(i))
		}
	}
	if got.Stuck(12) != StuckDead {
		t.Fatal("defect lost")
	}
	if got.HeatedCount() != 2 {
		t.Fatalf("heated count %d", got.HeatedCount())
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := New(quiet(2, 32))
		for _, op := range ops {
			dot := int(op) % m.Dots()
			switch op % 3 {
			case 0:
				m.MWB(dot, op%5 == 0)
			case 1:
				m.EWB(dot)
			case 2:
				m.SetStuck(dot, StuckKind(op%4))
			}
		}
		got, err := RestoreSnapshot(m.Snapshot())
		if err != nil {
			return false
		}
		for i := 0; i < m.Dots(); i++ {
			if got.State(i) != m.State(i) || got.Stuck(i) != m.Stuck(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("SMEDxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	}
	for i, c := range cases {
		if _, err := RestoreSnapshot(c); err == nil {
			t.Errorf("case %d: garbage restored", i)
		}
	}
	// Truncated valid snapshot.
	m := New(quiet(2, 8))
	snap := m.Snapshot()
	if _, err := RestoreSnapshot(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	// Wrong version.
	snap2 := m.Snapshot()
	snap2[4] = 99
	if _, err := RestoreSnapshot(snap2); err == nil {
		t.Fatal("wrong version restored")
	}
}
