// Package manchester implements the write-once cell codings of the
// paper. Following Molnar et al. [31], each logical bit is stored in a
// cell of two physical dots:
//
//	logical 1 → UH   logical 0 → HU
//	UU → cell never written   HH → evidence of tampering
//
// On the patterned medium "H" is a heated dot and "U" an intact one.
// Because heating is irreversible (U→H only), the sole way to alter a
// written cell is to heat its remaining U dot, producing the invalid
// code HH — that is the tamper evidence. The encoding also guarantees a
// heated dot has at most one heated neighbour, which spreads thermal
// stress (§3).
//
// The package also provides the Rivest–Shamir write-once-memory code
// the paper points to for higher efficiency at small line sizes
// (§8, [33]): two writes of 2 logical bits each into 3 write-once
// dots.
//
// Packed flags. The codecs take and return per-dot heat flags packed
// MSB-first into 64-bit words, the layout of the medium's
// magnetisation and of its ranged electrical read: flag k is bit
// 63-k%64 of word k/64 (a set bit means "heated"), and a run of n
// flags occupies Words(n) words. Encoders append whole words with the
// bits past the run zero; decoders take the run's length and ignore
// those bits. A Manchester word holds 32 cells, so Encode and Decode
// work a word at a time with shifts and masks, and Decode visits cells
// one by one only in a word holding an HH or UU cell.
package manchester

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// CellState is the decoded state of one Manchester cell.
type CellState int

// Cell states.
const (
	// CellUnused is an unwritten cell (UU).
	CellUnused CellState = iota
	// CellZero encodes logical 0 (HU).
	CellZero
	// CellOne encodes logical 1 (UH).
	CellOne
	// CellTampered is the invalid state HH: some dot was heated after
	// the cell was written.
	CellTampered
)

// String returns the dot-pair notation of the state.
func (s CellState) String() string {
	switch s {
	case CellUnused:
		return "UU"
	case CellZero:
		return "HU"
	case CellOne:
		return "UH"
	case CellTampered:
		return "HH"
	default:
		return fmt.Sprintf("CellState(%d)", int(s))
	}
}

// DecodeCell maps the pair of heated-flags (first, second dot) to a
// cell state.
func DecodeCell(firstHeated, secondHeated bool) CellState {
	switch {
	case firstHeated && secondHeated:
		return CellTampered
	case firstHeated:
		return CellZero
	case secondHeated:
		return CellOne
	default:
		return CellUnused
	}
}

// EncodeBit returns the heated-flags (first, second dot) that encode
// bit b.
func EncodeBit(b bool) (firstHeated, secondHeated bool) {
	if b {
		return false, true // UH = 1
	}
	return true, false // HU = 0
}

// Words returns the number of words n packed flags occupy.
func Words(n int) int { return (n + 63) / 64 }

// secondDots masks the second dot of every cell in a packed word: cell
// c of a word is its bits 63-2c (first dot) and 62-2c (second dot).
const secondDots = 0x5555555555555555

// Encode appends the packed heat flags of data to dst and returns the
// extended slice: two dots per bit, MSB-first within each byte, so
// EncodedDots(len(data)) flags in Words of that many words. Four bytes
// fill a word; the bits past the last cell of a final partial word are
// zero.
func Encode(dst []uint64, data []byte) []uint64 {
	for len(data) > 0 {
		c := min(4, len(data))
		var x [4]byte
		copy(x[:], data[:c])
		// Bit i of the 32 data bits (bit 31 is cell 0) becomes the
		// second dot of its cell, bit 2i; a 0 heats the first dot
		// instead.
		ones := spread(binary.BigEndian.Uint32(x[:]))
		w := ones | (^ones&secondDots)<<1
		dst = append(dst, w&^(^uint64(0)>>(16*c)))
		data = data[c:]
	}
	return dst
}

// spread moves bit i of x to bit 2i.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & secondDots
}

// gather moves bit 2i of v to bit i, dropping the odd bits: the
// inverse of spread.
func gather(v uint64) uint32 {
	v &= secondDots
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0F0F0F0F0F0F0F0F
	v = (v | v>>4) & 0x00FF00FF00FF00FF
	v = (v | v>>8) & 0x0000FFFF0000FFFF
	return uint32(v | v>>16)
}

// Errors returned by Decode.
var (
	// ErrTampered reports at least one HH cell.
	ErrTampered = errors.New("manchester: tampered cell (HH)")
	// ErrUnused reports at least one UU cell inside the decoded range.
	ErrUnused = errors.New("manchester: unused cell (UU) inside data")
	// ErrOddLength reports a flag count that does not divide into
	// cells and bytes.
	ErrOddLength = errors.New("manchester: flag count not a multiple of 16")
)

// DecodeReport describes the outcome of decoding a run of cells.
type DecodeReport struct {
	// Data is the decoded payload (valid only when Clean).
	Data []byte
	// Tampered lists the cell indices found in state HH.
	Tampered []int
	// Unused lists the cell indices found in state UU.
	Unused []int
}

// Clean reports whether every cell decoded to a valid data state.
func (r DecodeReport) Clean() bool {
	return len(r.Tampered) == 0 && len(r.Unused) == 0
}

// Decode reconstructs bytes from the first dots packed heat flags of
// words (as produced by Encode); words must hold Words(dots) words. It
// never guesses: cells in state HH or UU are reported, in ascending
// cell order, and the corresponding bit is left zero. A word whose 32
// cells all hold data decodes without visiting its cells.
func Decode(words []uint64, dots int) (DecodeReport, error) {
	if dots%16 != 0 {
		return DecodeReport{}, ErrOddLength
	}
	rep := DecodeReport{Data: make([]byte, dots/16)}
	for w := 0; w < Words(dots); w++ {
		// cells masks the second dots of the cells in the run.
		cells := uint64(secondDots)
		if left := dots - 64*w; left < 64 {
			cells &^= ^uint64(0) >> left
		}
		first, second := words[w]>>1&cells, words[w]&cells
		if invalid := ^(first ^ second) & cells; invalid != 0 {
			tampered := first & second
			rep.Tampered = appendCells(rep.Tampered, 32*w, tampered)
			rep.Unused = appendCells(rep.Unused, 32*w, invalid&^tampered)
		}
		var data [4]byte
		binary.BigEndian.PutUint32(data[:], gather(second&^first))
		copy(rep.Data[4*w:], data[:])
	}
	var err error
	if len(rep.Tampered) > 0 {
		err = ErrTampered
	} else if len(rep.Unused) > 0 {
		err = ErrUnused
	}
	return rep, err
}

// appendCells appends to list, in ascending order, cell base+c for
// every cell c whose second dot is set in mask.
func appendCells(list []int, base int, mask uint64) []int {
	for mask != 0 {
		b := bits.LeadingZeros64(mask)
		list = append(list, base+b/2)
		mask &^= 1 << (63 - b)
	}
	return list
}

// EncodedDots returns the number of dots needed to Manchester-encode n
// bytes.
func EncodedDots(n int) int { return n * 16 }

// MaxNeighbouringHeats verifies the reliability property of §3: within
// the first dots packed flags of words, the longest run of consecutive
// heated dots. For valid Manchester data this is at most 2 (an H at the
// end of one cell followed by an H at the start of the next), so each
// heated dot has at most one heated neighbour.
func MaxNeighbouringHeats(words []uint64, dots int) int {
	best, run := 0, 0
	for k := 0; k < dots; k++ {
		if words[k>>6]&(1<<(63-k&63)) != 0 {
			run++
			best = max(best, run)
		} else {
			run = 0
		}
	}
	return best
}
