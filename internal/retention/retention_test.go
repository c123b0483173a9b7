package retention

import (
	"errors"
	"testing"
	"time"

	"sero/internal/core"
	"sero/internal/device"
)

func testStore(t testing.TB, blocks int) *core.Store {
	t.Helper()
	return core.NewStore(device.New(device.QuietParams(blocks)))
}

func doc(seed byte) [][]byte {
	b := make([]byte, device.DataBytes)
	for i := range b {
		b[i] = seed ^ byte(i)
	}
	return [][]byte{b}
}

func TestIngestVerify(t *testing.T) {
	st := testStore(t, 256)
	m := NewManager(st, Policy{Class: "short", Period: time.Second})
	rec, err := m.Ingest("doc-1", "short", doc(1))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Shredded {
		t.Fatal("fresh record shredded")
	}
	rep, err := m.Verify("doc-1")
	if err != nil || !rep.OK {
		t.Fatalf("verify %+v %v", rep, err)
	}
}

func TestIngestUnknownClass(t *testing.T) {
	m := NewManager(testStore(t, 64))
	if _, err := m.Ingest("x", "nope", doc(1)); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err %v", err)
	}
}

func TestIngestDuplicateID(t *testing.T) {
	m := NewManager(testStore(t, 256), Policy{Class: "c", Period: time.Hour})
	if _, err := m.Ingest("dup", "c", doc(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("dup", "c", doc(2)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("err %v", err)
	}
}

func TestShredBeforeExpiryRefused(t *testing.T) {
	st := testStore(t, 256)
	m := NewManager(st, Policy{Class: "long", Period: time.Hour})
	if _, err := m.Ingest("keep", "long", doc(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Shred("keep"); !errors.Is(err, ErrNotExpired) {
		t.Fatalf("premature shred: %v", err)
	}
}

func TestExpiryAndShred(t *testing.T) {
	st := testStore(t, 256)
	m := NewManager(st,
		Policy{Class: "short", Period: time.Millisecond},
		Policy{Class: "long", Period: time.Hour},
	)
	if _, err := m.Ingest("old", "short", doc(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest("new", "long", doc(5)); err != nil {
		t.Fatal(err)
	}
	// Advance virtual time past the short policy.
	st.Device().Clock().Advance(2 * time.Millisecond)

	expired := m.Expired()
	if len(expired) != 1 || expired[0].ID != "old" {
		t.Fatalf("expired %v", expired)
	}
	n, err := m.ShredExpired()
	if err != nil || n != 1 {
		t.Fatalf("shredded %d %v", n, err)
	}
	// The shredded record's data is gone but the event is evident.
	rep, err := m.Verify("old")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("shredded record verifies clean")
	}
	ok, err := st.Device().(*device.Device).IsShredded(m.records["old"].Line.Start)
	if err != nil || !ok {
		t.Fatalf("IsShredded %v %v", ok, err)
	}
	// The unexpired record is untouched.
	rep, err = m.Verify("new")
	if err != nil || !rep.OK {
		t.Fatalf("bystander damaged: %+v %v", rep, err)
	}
	// Double shred refused.
	if _, err := m.Shred("old"); err == nil {
		t.Fatal("double shred accepted")
	}
}

func TestDecommissionable(t *testing.T) {
	st := testStore(t, 256)
	m := NewManager(st, Policy{Class: "c", Period: time.Millisecond})
	if !m.Decommissionable() {
		t.Fatal("empty device not decommissionable")
	}
	if _, err := m.Ingest("r", "c", doc(6)); err != nil {
		t.Fatal(err)
	}
	if m.Decommissionable() {
		t.Fatal("device with live data decommissionable")
	}
	st.Device().Clock().Advance(2 * time.Millisecond)
	if !m.Decommissionable() {
		t.Fatal("device with only expired data not decommissionable")
	}
}

func TestRecordsSorted(t *testing.T) {
	m := NewManager(testStore(t, 512), Policy{Class: "c", Period: time.Hour})
	for _, id := range []string{"c", "a", "b"} {
		if _, err := m.Ingest(id, "c", doc(7)); err != nil {
			t.Fatal(err)
		}
	}
	recs := m.Records()
	if len(recs) != 3 || recs[0].ID != "a" || recs[2].ID != "c" {
		t.Fatalf("records %v", recs)
	}
}
