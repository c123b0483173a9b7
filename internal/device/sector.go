// Package device implements the SERO block device of §3: a probe
// storage device on a patterned medium offering the six sector
// operations the paper derives from the four bit operations —
//
//	mrs/mws: magnetic read/write of a 512-byte sector
//	ers/ews: electrical read/write of a sector (write-once)
//	heat:    hash a line of 2^N blocks and store the hash write-once
//	verify:  recompute and compare a heated line's hash
//
// Sectors carry "about 15% sector overhead for the sector header,
// error correction, and cyclic redundancy check" [39]: each 512-byte
// sector is framed with a 16-byte header (physical block address,
// flags, CRC-32 of the payload) and 64 bytes of interleaved
// Reed-Solomon parity, for 592 physical bytes — 15.6% overhead.
//
// The device addresses blocks by *physical* block address (PBA) and
// never remaps them: tamper evidence requires knowing exactly where to
// look for heated hashes (§3 "Addressing").
package device

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"sero/internal/ecc"
)

// Sector geometry constants.
const (
	// DataBytes is the payload size of one block (one sector).
	DataBytes = 512
	// HeaderBytes frames each sector: 8-byte PBA, 1 flag byte, 3
	// reserved, 4-byte CRC-32 of the payload.
	HeaderBytes = 16
	// RSWays is the Reed-Solomon interleave factor.
	RSWays = 4
	// RSParityPerWay is the parity bytes per RS lane; 4 lanes × 16 =
	// 64 parity bytes, correcting up to 8 byte errors per lane.
	RSParityPerWay = 16
	// ParityBytes is the total RS parity per sector.
	ParityBytes = RSWays * RSParityPerWay
	// PhysicalBytes is the full on-medium sector frame size.
	PhysicalBytes = DataBytes + HeaderBytes + ParityBytes
	// DotsPerBlock is the number of magnetic dots one block occupies
	// (one dot per bit).
	DotsPerBlock = PhysicalBytes * 8
	// DataRegionDots is the number of dots holding the 512-byte
	// payload region — the region reused for Manchester-encoded heated
	// data in block 0 of a line (Fig 3's 4096 bits).
	DataRegionDots = DataBytes * 8
)

// Sector flag bits carried in the header.
const (
	// FlagData marks an ordinary data sector.
	FlagData byte = 0x00
)

// Frame assembles the physical byte image of a sector: header ‖ data ‖
// RS parity.
type Frame struct {
	PBA   uint64
	Flags byte
	Data  [DataBytes]byte
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// codec is the shared interleaved RS codec; it is stateless after
// construction.
var codec = ecc.NewInterleaved(RSParityPerWay, RSWays)

// Marshal produces the PhysicalBytes on-medium image of the frame.
func (f *Frame) Marshal() []byte {
	buf := make([]byte, HeaderBytes+DataBytes)
	binary.BigEndian.PutUint64(buf[0:8], f.PBA)
	buf[8] = f.Flags
	// buf[9:12] reserved
	binary.BigEndian.PutUint32(buf[12:16], crc32.Checksum(f.Data[:], crcTable))
	copy(buf[HeaderBytes:], f.Data[:])
	return codec.Encode(buf)
}

// Unmarshal errors.
var (
	// ErrUncorrectable reports RS decode failure: the sector is
	// unreadable magnetically. The caller must probe electrically
	// before concluding the block is bad (it may be heated).
	ErrUncorrectable = errors.New("device: sector uncorrectable")
	// ErrChecksum reports an RS-clean frame whose payload CRC fails —
	// silent corruption beyond the code's guarantee.
	ErrChecksum = errors.New("device: sector checksum mismatch")
	// ErrMisplaced reports a frame whose header PBA does not match the
	// address it was read from (misdirected write, or a copy-mask
	// attack §5.2).
	ErrMisplaced = errors.New("device: sector header PBA mismatch")
)

// UnmarshalFrame decodes a physical sector image read from expectedPBA.
// It corrects up to the RS capability, validates the CRC and the header
// address, and returns the frame plus the number of corrected bytes.
func UnmarshalFrame(img []byte, expectedPBA uint64) (Frame, int, error) {
	if len(img) != PhysicalBytes {
		return Frame{}, 0, fmt.Errorf("device: frame image %d bytes, want %d", len(img), PhysicalBytes)
	}
	buf := append([]byte(nil), img...)
	fixed, corrected, err := codec.Decode(buf, HeaderBytes+DataBytes)
	if err != nil {
		return Frame{}, 0, ErrUncorrectable
	}
	var f Frame
	f.PBA = binary.BigEndian.Uint64(fixed[0:8])
	f.Flags = fixed[8]
	wantCRC := binary.BigEndian.Uint32(fixed[12:16])
	copy(f.Data[:], fixed[HeaderBytes:])
	if crc32.Checksum(f.Data[:], crcTable) != wantCRC {
		return Frame{}, corrected, ErrChecksum
	}
	if f.PBA != expectedPBA {
		return f, corrected, ErrMisplaced
	}
	return f, corrected, nil
}

// ForgedFrameBits builds the per-dot bit image of a fully valid sector
// frame for the given address and payload. It exists for the §5
// security analysis: a powerful attacker with raw medium access can
// write consistent frames (correct CRC, correct parity, any header
// address) — the tamper evidence must come from the heated hashes, not
// from the framing. Production code never calls this.
func ForgedFrameBits(pba uint64, data []byte) []bool {
	var f Frame
	f.PBA = pba
	copy(f.Data[:], data)
	return bytesToBits(f.Marshal())
}

// bytesToBits expands b into per-bit booleans, MSB-first.
func bytesToBits(b []byte) []bool {
	out := make([]bool, len(b)*8)
	for i, by := range b {
		for bit := 0; bit < 8; bit++ {
			out[i*8+bit] = by&(1<<(7-bit)) != 0
		}
	}
	return out
}
