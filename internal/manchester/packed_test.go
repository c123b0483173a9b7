package manchester

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sero/internal/sim"
)

// The reference codecs below are the one-flag-per-bool codings the
// packed codecs replace, spelled out cell by cell.

// refEncode expands data into per-dot heat flags, two dots per bit,
// MSB-first within each byte.
func refEncode(data []byte) []bool {
	var out []bool
	for _, b := range data {
		for bit := 7; bit >= 0; bit-- {
			f, s := EncodeBit(b&(1<<bit) != 0)
			out = append(out, f, s)
		}
	}
	return out
}

// refDecode reconstructs bytes from per-dot heat flags, reporting HH and
// UU cells and leaving their bits zero.
func refDecode(flags []bool) (DecodeReport, error) {
	if len(flags)%16 != 0 {
		return DecodeReport{}, ErrOddLength
	}
	rep := DecodeReport{Data: make([]byte, len(flags)/16)}
	for cell := 0; cell*2 < len(flags); cell++ {
		switch DecodeCell(flags[cell*2], flags[cell*2+1]) {
		case CellOne:
			rep.Data[cell/8] |= 1 << (7 - cell%8)
		case CellTampered:
			rep.Tampered = append(rep.Tampered, cell)
		case CellUnused:
			rep.Unused = append(rep.Unused, cell)
		}
	}
	var err error
	if len(rep.Tampered) > 0 {
		err = ErrTampered
	} else if len(rep.Unused) > 0 {
		err = ErrUnused
	}
	return rep, err
}

// refWOMEncode expands data into first-generation WOM cells, 4 cells of
// 3 dots per byte, MSB-first.
func refWOMEncode(data []byte) []bool {
	var out []bool
	for _, b := range data {
		for p := 0; p < 4; p++ {
			cw := wom.gen1[(b>>(6-2*p))&3]
			out = append(out, cw[0], cw[1], cw[2])
		}
	}
	return out
}

// refWOMDecode reads each 3-dot cell through WOMCell.
func refWOMDecode(flags []bool) ([]byte, error) {
	if len(flags)%12 != 0 {
		return nil, fmt.Errorf("manchester: WOM flag count %d not a multiple of 12", len(flags))
	}
	out := make([]byte, len(flags)/12)
	for cell := 0; cell*3 < len(flags); cell++ {
		var c WOMCell
		c.SetDots([3]bool{flags[cell*3], flags[cell*3+1], flags[cell*3+2]})
		v, err := c.Read()
		if err != nil {
			return nil, err
		}
		out[cell/4] |= v << (6 - 2*(cell%4))
	}
	return out, nil
}

// pack packs flags MSB-first into words; pad fills the bits past the
// run, which decoders must ignore.
func pack(flags []bool, pad uint64) []uint64 {
	words := make([]uint64, Words(len(flags)))
	if r := len(flags) % 64; r != 0 {
		words[len(words)-1] = pad & (^uint64(0) >> r)
	}
	for k, f := range flags {
		setFlag(words, k, f)
	}
	return words
}

// unpack returns the first n flags of words.
func unpack(words []uint64, n int) []bool {
	out := make([]bool, n)
	for k := range out {
		out[k] = flag(words, k)
	}
	return out
}

// TestPackedCodecsMatchReference checks the packed Manchester and WOM
// codecs against the reference codecs on random payloads of 1 to 80
// bytes, so runs end on and off word boundaries (a Manchester word is
// 4 bytes, WOM cells straddle words): identical encodings, with zero
// padding, and identical decodes of the clean encoding and of damaged
// copies, whose flags are flipped at random and in bursts of cells
// that cross word boundaries to make HH and UU cells, with the padding
// past the run set to junk.
func TestPackedCodecsMatchReference(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+rng.Intn(80))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		for _, c := range []struct {
			name   string
			encode func([]uint64, []byte) []uint64
			ref    func([]byte) []bool
		}{
			{"manchester", Encode, refEncode},
			{"wom", WOMEncode, refWOMEncode},
		} {
			// Encode appends: a prefix word must survive.
			got := c.encode([]uint64{0xfeed}, data)
			want := c.ref(data)
			if got[0] != 0xfeed || !slices.Equal(got[1:], pack(want, 0)) {
				t.Fatalf("trial %d: %s encoding of %x is %x, reference %x",
					trial, c.name, data, got[1:], pack(want, 0))
			}
		}

		flags := refEncode(data)
		damage(rng, flags)
		rep, err := Decode(pack(flags, rng.Uint64()), len(flags))
		wantRep, wantErr := refDecode(flags)
		if !errors.Is(err, wantErr) || !bytes.Equal(rep.Data, wantRep.Data) ||
			!slices.Equal(rep.Tampered, wantRep.Tampered) || !slices.Equal(rep.Unused, wantRep.Unused) {
			t.Fatalf("trial %d: Decode %+v, %v; reference %+v, %v", trial, rep, err, wantRep, wantErr)
		}

		flags = refWOMEncode(data)
		damage(rng, flags)
		gotWOM, err := WOMDecode(pack(flags, rng.Uint64()), len(flags))
		wantWOM, wantErr := refWOMDecode(flags)
		if !errors.Is(err, wantErr) || !bytes.Equal(gotWOM, wantWOM) {
			t.Fatalf("trial %d: WOMDecode %x, %v; reference %x, %v", trial, gotWOM, err, wantWOM, wantErr)
		}
	}
}

// damage heats or cools flags: none in a quarter of the calls, else a
// few random flags and a burst of up to 40 consecutive flags set or
// cleared.
func damage(rng *sim.RNG, flags []bool) {
	if rng.Intn(4) == 0 {
		return
	}
	for range rng.Intn(4) {
		k := rng.Intn(len(flags))
		flags[k] = !flags[k]
	}
	lo := rng.Intn(len(flags))
	v := rng.Bool()
	for k := lo; k < min(len(flags), lo+rng.Intn(40)); k++ {
		flags[k] = v
	}
}

// TestPackedDecodeRejectsOddLengths checks the framing errors of the
// packed decoders.
func TestPackedDecodeRejectsOddLengths(t *testing.T) {
	words := make([]uint64, 4)
	for _, n := range []int{1, 15, 17, 100} {
		if _, err := Decode(words, n); !errors.Is(err, ErrOddLength) {
			t.Fatalf("Decode of %d flags: %v", n, err)
		}
	}
	for _, n := range []int{1, 11, 13, 100} {
		if _, err := WOMDecode(words, n); err == nil {
			t.Fatalf("WOMDecode of %d flags decoded", n)
		}
	}
}
