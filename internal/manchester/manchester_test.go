package manchester

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestCellStateStrings(t *testing.T) {
	cases := map[CellState]string{
		CellUnused:   "UU",
		CellZero:     "HU",
		CellOne:      "UH",
		CellTampered: "HH",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestDecodeCellAllStates(t *testing.T) {
	if DecodeCell(false, false) != CellUnused {
		t.Error("UU")
	}
	if DecodeCell(true, false) != CellZero {
		t.Error("HU")
	}
	if DecodeCell(false, true) != CellOne {
		t.Error("UH")
	}
	if DecodeCell(true, true) != CellTampered {
		t.Error("HH")
	}
}

func TestEncodeBitInverse(t *testing.T) {
	for _, b := range []bool{true, false} {
		f, s := EncodeBit(b)
		st := DecodeCell(f, s)
		if b && st != CellOne {
			t.Error("1 does not encode to UH")
		}
		if !b && st != CellZero {
			t.Error("0 does not encode to HU")
		}
	}
}

// encode is Encode into a fresh slice, with the run's flag count.
func encode(data []byte) ([]uint64, int) {
	return Encode(nil, data), EncodedDots(len(data))
}

// setFlag sets packed flag k of words to heated.
func setFlag(words []uint64, k int, heated bool) {
	if heated {
		words[k/64] |= 1 << (63 - k%64)
	} else {
		words[k/64] &^= 1 << (63 - k%64)
	}
}

// flag reports packed flag k of words.
func flag(words []uint64, k int) bool { return words[k/64]&(1<<(63-k%64)) != 0 }

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		rep, err := Decode(encode(data))
		return err == nil && rep.Clean() && bytes.Equal(rep.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDetectsTamper(t *testing.T) {
	flags, n := encode([]byte{0xA5})
	// Heat the partner dot of cell 2: whatever its state, it becomes HH.
	setFlag(flags, 4, true)
	setFlag(flags, 5, true)
	rep, err := Decode(flags, n)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
	if len(rep.Tampered) != 1 || rep.Tampered[0] != 2 {
		t.Fatalf("tampered cells %v", rep.Tampered)
	}
}

func TestDecodeDetectsUnused(t *testing.T) {
	flags, n := encode([]byte{0xFF})
	setFlag(flags, 6, false)
	setFlag(flags, 7, false)
	rep, err := Decode(flags, n)
	if !errors.Is(err, ErrUnused) {
		t.Fatalf("err = %v, want ErrUnused", err)
	}
	if len(rep.Unused) != 1 || rep.Unused[0] != 3 {
		t.Fatalf("unused cells %v", rep.Unused)
	}
}

func TestDecodeOddLength(t *testing.T) {
	if _, err := Decode(make([]uint64, 1), 15); !errors.Is(err, ErrOddLength) {
		t.Fatalf("err = %v", err)
	}
}

func TestTamperPrecedesUnusedInError(t *testing.T) {
	flags, n := encode([]byte{0x0F})
	setFlag(flags, 0, true) // HH
	setFlag(flags, 1, true)
	setFlag(flags, 2, false) // UU
	setFlag(flags, 3, false)
	_, err := Decode(flags, n)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tamper must dominate: %v", err)
	}
}

func TestMaxNeighbouringHeats(t *testing.T) {
	// Property from §3: valid Manchester data has at most 2 adjacent
	// heated dots, i.e. every heated dot has at most one heated
	// neighbour.
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		return MaxNeighbouringHeats(encode(data)) <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxNeighbouringHeatsWorstCase(t *testing.T) {
	// 0 then 1: HU UH has the two middle dots... actually HU.UH gives
	// U,H,U,H — no adjacency. 1 then 0: UH HU → U,H,H,U: exactly 2.
	flags, n := encode([]byte{0xBF}) // 1011_1111: bit pattern containing "10"
	if got := MaxNeighbouringHeats(flags, n); got != 2 {
		t.Fatalf("worst case adjacency %d, want 2", got)
	}
}

func TestEncodedDots(t *testing.T) {
	if EncodedDots(32) != 512 {
		t.Fatalf("a 256-bit hash must occupy 512 dots, got %d", EncodedDots(32))
	}
}

func TestEncodeBytesMSBFirst(t *testing.T) {
	flags, _ := encode([]byte{0x80})
	// First cell must be UH (logical 1).
	if DecodeCell(flag(flags, 0), flag(flags, 1)) != CellOne {
		t.Fatal("MSB not first")
	}
	if DecodeCell(flag(flags, 2), flag(flags, 3)) != CellZero {
		t.Fatal("bit 6 should be 0")
	}
}
