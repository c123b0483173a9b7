package fossil

import (
	"errors"
	"fmt"
	"testing"

	"sero/internal/core"
	"sero/internal/device"
)

func testStore(t testing.TB, blocks int) *core.Store {
	t.Helper()
	return core.NewStore(device.New(device.QuietParams(blocks)))
}

func TestInsertLookup(t *testing.T) {
	idx, err := New(testStore(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := idx.Insert(KeyOf([]byte{byte(i)}), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		v, err := idx.Lookup(KeyOf([]byte{byte(i)}))
		if err != nil || v != uint64(100+i) {
			t.Fatalf("key %d: %d %v", i, v, err)
		}
	}
	if idx.Len() != 5 {
		t.Fatalf("len %d", idx.Len())
	}
}

func TestLookupMissing(t *testing.T) {
	idx, err := New(testStore(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Lookup(KeyOf([]byte("missing"))); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err %v", err)
	}
}

func TestDuplicateRejected(t *testing.T) {
	idx, err := New(testStore(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf([]byte("once"))
	if err := idx.Insert(k, 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Insert(k, 2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err %v", err)
	}
	// The original binding survives.
	v, err := idx.Lookup(k)
	if err != nil || v != 1 {
		t.Fatalf("binding changed: %d %v", v, err)
	}
}

func TestNodeFreezesWhenFull(t *testing.T) {
	idx, err := New(testStore(t, 1024))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly SlotsPerNode inserts heat the root.
	for i := 0; i < SlotsPerNode; i++ {
		if err := idx.Insert(KeyOf([]byte{byte(i), 0xAA}), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.HeatedNodes() != 1 {
		t.Fatalf("heated nodes %d, want 1 (root)", idx.HeatedNodes())
	}
	// The heated node verifies clean on the device.
	reps, err := idx.Verify()
	if err != nil || len(reps) != 1 || !reps[0].OK {
		t.Fatalf("verify %v %v", reps, err)
	}
	// Further inserts descend into children.
	if err := idx.Insert(KeyOf([]byte("overflow")), 999); err != nil {
		t.Fatal(err)
	}
	v, err := idx.Lookup(KeyOf([]byte("overflow")))
	if err != nil || v != 999 {
		t.Fatalf("descended insert lost: %v", err)
	}
}

func TestManyInsertsAllRetrievable(t *testing.T) {
	idx, err := New(testStore(t, 8192))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := idx.Insert(KeyOf([]byte(fmt.Sprintf("key-%d", i))), uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		v, err := idx.Lookup(KeyOf([]byte(fmt.Sprintf("key-%d", i))))
		if err != nil || v != uint64(i) {
			t.Fatalf("lookup %d: %d %v", i, v, err)
		}
	}
	if idx.Len() != n {
		t.Fatalf("len %d", idx.Len())
	}
	if idx.HeatedNodes() == 0 {
		t.Fatal("no nodes heated after 300 inserts")
	}
	reps, err := idx.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		if !r.OK {
			t.Fatalf("heated node tampered: %+v", r)
		}
	}
}

func TestLoadRebuildsIndex(t *testing.T) {
	st := testStore(t, 8192)
	idx, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	for i := 0; i < n; i++ {
		if err := idx.Insert(KeyOf([]byte{byte(i), byte(i * 3)}), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rootLine := idx.RootLine()

	idx2, err := Load(st, rootLine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := idx2.Lookup(KeyOf([]byte{byte(i), byte(i * 3)}))
		if err != nil || v != uint64(i) {
			t.Fatalf("lookup after load %d: %d %v", i, v, err)
		}
	}
	if idx2.HeatedNodes() != idx.HeatedNodes() {
		t.Fatalf("heated nodes %d vs %d", idx2.HeatedNodes(), idx.HeatedNodes())
	}
	// The reloaded index keeps accepting inserts.
	if err := idx2.Insert(KeyOf([]byte("post-load")), 777); err != nil {
		t.Fatal(err)
	}
}

func TestHeatedNodeTamperDetected(t *testing.T) {
	st := testStore(t, 1024)
	idx, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < SlotsPerNode; i++ {
		if err := idx.Insert(KeyOf([]byte{byte(i)}), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Forge the heated root node's block.
	line := idx.RootLine()
	forged := marshalNode(&node{line: line, level: 0})
	if err := st.Device().(*device.Device).ForgeBlock(line+1, forged); err != nil {
		t.Fatal(err)
	}
	reps, err := idx.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].OK {
		t.Fatal("forged node not detected")
	}
}

func TestBranchAtDeterministic(t *testing.T) {
	k := KeyOf([]byte("determinism"))
	for level := uint16(0); level < 20; level++ {
		b1 := branchAt(k, level)
		b2 := branchAt(k, level)
		if b1 != b2 || b1 < 0 || b1 >= Branch {
			t.Fatalf("level %d branch %d/%d", level, b1, b2)
		}
	}
}

func TestNodeMarshalRoundTrip(t *testing.T) {
	n := &node{line: 42, level: 3}
	for i := 0; i < 7; i++ {
		n.entries = append(n.entries, Entry{Key: KeyOf([]byte{byte(i)}), Value: uint64(i * 2)})
	}
	n.children = [Branch]uint64{10, 0, 30, 0}
	got, err := unmarshalNode(42, marshalNode(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.level != 3 || len(got.entries) != 7 || got.children != n.children {
		t.Fatalf("round trip %+v", got)
	}
	for i := range n.entries {
		if got.entries[i] != n.entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestUnmarshalNodeRejectsGarbage(t *testing.T) {
	if _, err := unmarshalNode(0, make([]byte, 10)); err == nil {
		t.Fatal("short node parsed")
	}
	if _, err := unmarshalNode(0, make([]byte, device.DataBytes)); err == nil {
		t.Fatal("zero node parsed")
	}
}
