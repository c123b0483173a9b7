// Package lfs implements a log-structured file system for a SERO
// device, following §4 of the paper: the disk is a collection of
// contiguous segments filled sequentially; writes are clustered; a
// cost-benefit cleaner reclaims dead space. Two SERO-specific policies
// distinguish it from classic LFS [42]:
//
//  1. The cleaner never copies heated lines — "a heated line leaves no
//     reusable space behind", so copying it only wastes free space.
//     Segments containing heated lines are pinned.
//  2. Writes are clustered by *heat affinity* (which data is likely to
//     be heated together), producing the bimodal distribution of
//     mostly-heated and mostly-unheated segments the paper argues for.
package lfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sero/internal/device"
)

// Ino is an inode number. Ino 0 is reserved (nil); ino 1 is the root
// directory file.
type Ino uint64

// RootIno is the inode number of the root directory file.
const RootIno Ino = 1

// Inode layout constants.
const (
	inodeMagic = "SINO"
	// MaxDirect is the number of direct block pointers an inode holds:
	// the 512-byte inode block minus the 48-byte fixed header, 8 bytes
	// per pointer.
	MaxDirect = (device.DataBytes - 48) / 8
	// MaxFileBlocks is the largest file the FS supports, in blocks.
	MaxFileBlocks = MaxDirect
	// MaxFileBytes is the largest file size in bytes.
	MaxFileBytes = MaxFileBlocks * device.DataBytes
)

// Inode flag bits.
const (
	// FlagHeated marks a file frozen into one or more heated lines.
	FlagHeated byte = 1 << iota
)

// Inode is the on-disk metadata of one file.
type Inode struct {
	// Ino is the file's inode number.
	Ino Ino
	// Size is the durable file size in bytes (what the blocks on the
	// log cover; unflushed writes extend it only in memory).
	Size uint64
	// MTime is the last modification time (virtual).
	MTime time.Duration
	// Flags holds the inode flag bits (FlagHeated).
	Flags byte
	// Affinity is the heat-affinity class used by the segment
	// clustering policy: files expected to be heated together (same
	// snapshot, same retention class) share a class.
	Affinity uint8
	// Blocks holds the PBAs of the file's data blocks, in order.
	Blocks []uint64
	// HeatLines records the heated lines holding this file once
	// frozen (start block of each line, ordered).
	HeatLines []uint64
}

// Heated reports whether the file has been frozen.
func (in *Inode) Heated() bool { return in.Flags&FlagHeated != 0 }

// ErrBadInode reports an unparseable inode block.
var ErrBadInode = errors.New("lfs: malformed inode")

// Marshal encodes the inode into one 512-byte block. Heated-line
// starts are stored in the pointer area after the data pointers, with
// counts in the header.
func (in *Inode) Marshal() ([]byte, error) {
	if len(in.Blocks)+len(in.HeatLines) > MaxDirect {
		return nil, fmt.Errorf("lfs: inode %d with %d+%d pointers exceeds %d",
			in.Ino, len(in.Blocks), len(in.HeatLines), MaxDirect)
	}
	buf := make([]byte, device.DataBytes)
	copy(buf[0:4], inodeMagic)
	binary.BigEndian.PutUint64(buf[4:12], uint64(in.Ino))
	binary.BigEndian.PutUint64(buf[12:20], in.Size)
	binary.BigEndian.PutUint64(buf[20:28], uint64(in.MTime))
	buf[28] = in.Flags
	buf[29] = in.Affinity
	binary.BigEndian.PutUint32(buf[32:36], uint32(len(in.Blocks)))
	binary.BigEndian.PutUint32(buf[36:40], uint32(len(in.HeatLines)))
	// buf[40:48] reserved
	off := 48
	for _, b := range in.Blocks {
		binary.BigEndian.PutUint64(buf[off:off+8], b)
		off += 8
	}
	for _, h := range in.HeatLines {
		binary.BigEndian.PutUint64(buf[off:off+8], h)
		off += 8
	}
	return buf, nil
}

// UnmarshalInode parses an inode block.
func UnmarshalInode(buf []byte) (*Inode, error) {
	if len(buf) != device.DataBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadInode, len(buf))
	}
	if string(buf[0:4]) != inodeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadInode)
	}
	in := &Inode{
		Ino:      Ino(binary.BigEndian.Uint64(buf[4:12])),
		Size:     binary.BigEndian.Uint64(buf[12:20]),
		MTime:    time.Duration(binary.BigEndian.Uint64(buf[20:28])),
		Flags:    buf[28],
		Affinity: buf[29],
	}
	nb := int(binary.BigEndian.Uint32(buf[32:36]))
	nh := int(binary.BigEndian.Uint32(buf[36:40]))
	if nb+nh > MaxDirect {
		return nil, fmt.Errorf("%w: %d+%d pointers", ErrBadInode, nb, nh)
	}
	off := 48
	for i := 0; i < nb; i++ {
		in.Blocks = append(in.Blocks, binary.BigEndian.Uint64(buf[off:off+8]))
		off += 8
	}
	for i := 0; i < nh; i++ {
		in.HeatLines = append(in.HeatLines, binary.BigEndian.Uint64(buf[off:off+8]))
		off += 8
	}
	return in, nil
}
