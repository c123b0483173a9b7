package medium

import (
	"math"
	"testing"
	"testing/quick"

	"sero/internal/physics"
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

// TestSnapshotKeepsHeatedAtThreshold pins heated-ness across a snapshot
// round trip for a dot whose damage sits just above the threshold: a
// 595 °C pulse train (no neighbour heating) crosses it at 0.62510 after
// 134 pulses, which plain rounding to 1/255 stores as 159/255 = 0.6235,
// below the threshold. Sealed evidence must survive a save and reload.
func TestSnapshotKeepsHeatedAtThreshold(t *testing.T) {
	p := DefaultParams(1, 8)
	p.PulseTempC = 595
	p.NeighborTempFactor = 0
	m := New(p)
	pulses := 0
	for m.State(0) != DotH {
		m.EWB(0)
		if pulses++; pulses > 1000 {
			t.Fatal("595 °C pulses never destroyed the dot")
		}
	}
	d := m.Damage(0)
	t.Logf("heated after %d pulses at damage %.5f", pulses, d)
	if d*255 >= 159.5 {
		t.Fatalf("damage %.5f rounds above the threshold; the case no longer exercises the bug", d)
	}
	got, err := RestoreSnapshot(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s := got.State(0); s != DotH {
		t.Fatalf("heated dot restored as %v (damage %.5f)", s, got.Damage(0))
	}
}

// TestSnapshotDamageKeepsHeatedSide checks the snapshot's damage byte
// in both directions over a fine sweep of [0,1] and every float32 within
// 64 ulps of the threshold: a heated dot restores heated, any other
// restores unheated, and the restored damage is within one 1/255 step.
func TestSnapshotDamageKeepsHeatedSide(t *testing.T) {
	var ds []float32
	for i := 0; i <= 255*64; i++ {
		ds = append(ds, float32(i)/(255*64))
	}
	up, down := float32(physics.HeatedDamageThreshold), float32(physics.HeatedDamageThreshold)
	for range 64 {
		up, down = math.Nextafter32(up, 2), math.Nextafter32(down, -1)
		ds = append(ds, up, down)
	}
	for _, d := range ds {
		e := overlayDot{damage: d}
		restored := overlayDot{damage: byteDamage(damageByte(&e))}
		if restored.heated() != e.heated() {
			t.Fatalf("damage %v (heated %v) restores as %v (heated %v)",
				d, e.heated(), restored.damage, restored.heated())
		}
		if diff := math.Abs(float64(restored.damage - d)); diff > 1.0/255 {
			t.Fatalf("damage %v restores as %v, %g away", d, restored.damage, diff)
		}
	}
}
