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
// The frame path works in place. A write encodes each frame into a
// pooled fixed-size image (putFrame): header, payload, then parity
// from the ecc package's slicing-by-8 encoder, which advances each
// lane's parity eight bytes per table-driven step. A read decodes the
// image the medium filled, in place (decodeFrame): the interleaved codec
// recomputes every lane's parity in one strided pass and compares it
// with the stored parity, which holds exactly when every syndrome is
// zero, so a clean frame costs one encode and one CRC, and a clean MRS
// allocates only the payload it returns. Only a lane that fails the
// check runs the full correcting decoder. A frame rewritten magnetically
// with consistent parity (a §5 forgery) is accepted exactly as before —
// tamper evidence comes from the heated hashes — and any bit flip that
// leaves an invalid codeword is still corrected or reported.
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
	"sync"

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
	PBA   uint64          // the block address the header binds
	Flags byte            // sector flag bits (FlagData)
	Data  [DataBytes]byte // the payload
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// codec is the shared interleaved RS codec; it is stateless after
// construction.
var codec = ecc.NewInterleaved(RSParityPerWay, RSWays)

// frameImages recycles the fixed-size scratch images the frame path
// encodes into and decodes in, so it allocates nothing per block. They
// are pooled rather than stack arrays because the payload CRC
// (hash/crc32) lets its argument escape.
var frameImages = sync.Pool{New: func() any { return new([PhysicalBytes]byte) }}

// Marshal produces the PhysicalBytes on-medium image of the frame.
func (f *Frame) Marshal() []byte {
	img := make([]byte, PhysicalBytes)
	putFrame(img, f.PBA, f.Flags, f.Data[:])
	return img
}

// putFrame writes the on-medium image of a sector carrying data at pba
// into img (PhysicalBytes long), in place: the header, the payload
// (zero-padded or truncated to DataBytes, as a Frame holds it) and
// the interleaved RS parity over both.
func putFrame(img []byte, pba uint64, flags byte, data []byte) {
	binary.BigEndian.PutUint64(img[0:8], pba)
	img[8] = flags
	clear(img[9:12]) // reserved
	payload := img[HeaderBytes : HeaderBytes+DataBytes]
	clear(payload[copy(payload, data):])
	binary.BigEndian.PutUint32(img[12:16], crc32.Checksum(payload, crcTable))
	codec.PutParity(img, HeaderBytes+DataBytes)
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
// img is not modified.
func UnmarshalFrame(img []byte, expectedPBA uint64) (Frame, int, error) {
	if len(img) != PhysicalBytes {
		return Frame{}, 0, fmt.Errorf("device: frame image %d bytes, want %d", len(img), PhysicalBytes)
	}
	buf := frameImages.Get().(*[PhysicalBytes]byte)
	defer frameImages.Put(buf)
	copy(buf[:], img)
	corrected, err := decodeFrame(buf[:], expectedPBA)
	if err != nil && !errors.Is(err, ErrMisplaced) {
		return Frame{}, corrected, err
	}
	f := Frame{PBA: binary.BigEndian.Uint64(buf[0:8]), Flags: buf[8]}
	copy(f.Data[:], buf[HeaderBytes:HeaderBytes+DataBytes])
	return f, corrected, err
}

// decodeFrame corrects the sector image img (PhysicalBytes long) in
// place, then validates the payload CRC and the header address,
// returning the number of corrected bytes. After a nil error or
// ErrMisplaced, img holds the corrected header and payload. A clean
// frame costs one parity recomputation (ecc.Interleaved.Decode) and
// one CRC, and allocates nothing.
func decodeFrame(img []byte, expectedPBA uint64) (int, error) {
	_, corrected, err := codec.Decode(img, HeaderBytes+DataBytes)
	if err != nil {
		return 0, ErrUncorrectable
	}
	if crc32.Checksum(img[HeaderBytes:HeaderBytes+DataBytes], crcTable) != binary.BigEndian.Uint32(img[12:16]) {
		return corrected, ErrChecksum
	}
	if binary.BigEndian.Uint64(img[0:8]) != expectedPBA {
		return corrected, ErrMisplaced
	}
	return corrected, nil
}
