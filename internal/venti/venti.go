// Package venti implements a Venti-style content-addressed archival
// store [40] over the SERO store, as sketched in §4.2 of the paper:
// every block is addressed by the SHA-256 of its contents (its
// "score"); pointer blocks hold the scores of their children, built
// from the leaves upward; the root score authenticates the entire
// hierarchy. Heating the line that holds the root node anchors the
// whole snapshot in tamper-evident storage — "the most relevant node
// to be heated is the root node, because this protects the entire
// hierarchy".
package venti

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sero/internal/core"
	"sero/internal/device"
)

// Score is the content address of a block.
type Score [sha256.Size]byte

// String renders the score in hex.
func (s Score) String() string { return fmt.Sprintf("%x", s[:8]) }

// ScoreOf computes the content address of a block.
func ScoreOf(data []byte) Score { return sha256.Sum256(data) }

// Pointer-block layout: blocks are exactly device.DataBytes long.
const (
	ptrMagic = "VPTR"
	// ptrHeader is magic(4) + depth(1) + reserved(3) + count(4) +
	// totalLen(8).
	ptrHeader = 20
	// FanOut is the number of child scores per pointer block.
	FanOut = (device.DataBytes - ptrHeader) / sha256.Size
)

// Archive is a content-addressed store over a SERO core store.
type Archive struct {
	st *core.Store
	// index maps scores to their physical block; content addressing
	// makes writes idempotent (natural dedup).
	index map[Score]uint64
	// snapshots records heated root anchors: root score → line start.
	snapshots map[Score]uint64

	stats Stats
}

// Stats counts archive activity.
type Stats struct {
	BlocksWritten uint64 // blocks stored by PutBlock
	BlocksDeduped uint64 // PutBlock calls whose content was already stored
	Snapshots     uint64 // heated snapshots
}

// Archive errors.
var (
	// ErrUnknownScore reports a score absent from the index.
	ErrUnknownScore = errors.New("venti: unknown score")
	// ErrCorrupt reports a block whose content no longer matches its
	// score — evidence of tampering.
	ErrCorrupt = errors.New("venti: block content does not match score")
	// ErrNotSnapshot reports a verify of a root that was never
	// heat-anchored.
	ErrNotSnapshot = errors.New("venti: root is not a heated snapshot")
)

// New builds an archive on st.
func New(st *core.Store) *Archive {
	return &Archive{
		st:        st,
		index:     make(map[Score]uint64),
		snapshots: make(map[Score]uint64),
	}
}

// Stats returns a copy of the counters.
func (a *Archive) Stats() Stats { return a.stats }

// PutBlock stores one block (padded to the device block size) and
// returns its score. Identical content is stored once.
func (a *Archive) PutBlock(data []byte) (Score, error) {
	if len(data) > device.DataBytes {
		return Score{}, fmt.Errorf("venti: block of %d bytes exceeds %d", len(data), device.DataBytes)
	}
	padded := make([]byte, device.DataBytes)
	copy(padded, data)
	score := ScoreOf(padded)
	if _, ok := a.index[score]; ok {
		a.stats.BlocksDeduped++
		return score, nil
	}
	pba, err := a.st.Alloc(1, 1)
	if err != nil {
		return Score{}, err
	}
	if err := a.st.Write(pba, padded); err != nil {
		return Score{}, err
	}
	a.index[score] = pba
	a.stats.BlocksWritten++
	return score, nil
}

// GetBlock fetches a block by score and verifies the content against
// the address — "a computed hash that does not match the address of
// the node presents evidence of tampering".
func (a *Archive) GetBlock(score Score) ([]byte, error) {
	pba, ok := a.index[score]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownScore, score)
	}
	data, err := a.st.Read(pba)
	if err != nil {
		return nil, err
	}
	if ScoreOf(data) != score {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, score)
	}
	return data, nil
}

// marshalPointer builds a pointer block for the given children.
func marshalPointer(depth uint8, totalLen uint64, children []Score) []byte {
	if len(children) > FanOut {
		panic(fmt.Sprintf("venti: %d children exceed fan-out %d", len(children), FanOut))
	}
	buf := make([]byte, device.DataBytes)
	copy(buf[0:4], ptrMagic)
	buf[4] = depth
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(children)))
	binary.BigEndian.PutUint64(buf[12:20], totalLen)
	off := ptrHeader
	for _, c := range children {
		copy(buf[off:off+sha256.Size], c[:])
		off += sha256.Size
	}
	return buf
}

// parsePointer decodes a pointer block.
func parsePointer(buf []byte) (depth uint8, totalLen uint64, children []Score, err error) {
	if len(buf) != device.DataBytes || !bytes.Equal(buf[0:4], []byte(ptrMagic)) {
		return 0, 0, nil, errors.New("venti: not a pointer block")
	}
	depth = buf[4]
	count := int(binary.BigEndian.Uint32(buf[8:12]))
	totalLen = binary.BigEndian.Uint64(buf[12:20])
	if count > FanOut {
		return 0, 0, nil, errors.New("venti: pointer block fan-out overflow")
	}
	off := ptrHeader
	for i := 0; i < count; i++ {
		var s Score
		copy(s[:], buf[off:off+sha256.Size])
		children = append(children, s)
		off += sha256.Size
	}
	return depth, totalLen, children, nil
}

// WriteStream stores an arbitrary byte stream as a leaves-up hash tree
// and returns the root score.
func (a *Archive) WriteStream(data []byte) (Score, error) {
	// Leaves.
	var level []Score
	if len(data) == 0 {
		s, err := a.PutBlock(nil)
		if err != nil {
			return Score{}, err
		}
		level = []Score{s}
	}
	for off := 0; off < len(data); off += device.DataBytes {
		end := off + device.DataBytes
		if end > len(data) {
			end = len(data)
		}
		s, err := a.PutBlock(data[off:end])
		if err != nil {
			return Score{}, err
		}
		level = append(level, s)
	}
	// Build upward. Depth 1 points at leaves.
	depth := uint8(1)
	for len(level) > 1 || depth == 1 {
		var next []Score
		for off := 0; off < len(level); off += FanOut {
			end := off + FanOut
			if end > len(level) {
				end = len(level)
			}
			blk := marshalPointer(depth, uint64(len(data)), level[off:end])
			s, err := a.PutBlock(blk)
			if err != nil {
				return Score{}, err
			}
			next = append(next, s)
		}
		level = next
		depth++
		if len(level) == 1 && depth > 1 {
			break
		}
	}
	return level[0], nil
}

// ReadStream reconstructs a stream from its root score, verifying
// every node against its address on the way down.
func (a *Archive) ReadStream(root Score) ([]byte, error) {
	blk, err := a.GetBlock(root)
	if err != nil {
		return nil, err
	}
	depth, totalLen, children, err := parsePointer(blk)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, c := range children {
		part, rerr := a.readNode(c, int(depth)-1)
		if rerr != nil {
			return nil, rerr
		}
		out = append(out, part...)
	}
	if uint64(len(out)) < totalLen {
		return nil, fmt.Errorf("venti: stream truncated: %d < %d", len(out), totalLen)
	}
	return out[:totalLen], nil
}

// readNode returns the concatenated leaf data under score. depth 0
// marks a leaf; the walk is depth-directed so leaf content can never
// be confused with a pointer block.
func (a *Archive) readNode(score Score, depth int) ([]byte, error) {
	blk, err := a.GetBlock(score)
	if err != nil {
		return nil, err
	}
	if depth <= 0 {
		return blk, nil
	}
	gotDepth, _, children, perr := parsePointer(blk)
	if perr != nil {
		return nil, perr
	}
	if int(gotDepth) != depth {
		return nil, fmt.Errorf("venti: pointer depth %d, expected %d", gotDepth, depth)
	}
	var out []byte
	for _, c := range children {
		part, rerr := a.readNode(c, depth-1)
		if rerr != nil {
			return nil, rerr
		}
		out = append(out, part...)
	}
	return out, nil
}

// Snapshot anchors root in tamper-evident storage: the root node is
// copied into a fresh line of its own and the line is heated. Returns
// the heated line info.
func (a *Archive) Snapshot(root Score) (device.LineInfo, error) {
	blk, err := a.GetBlock(root)
	if err != nil {
		return device.LineInfo{}, err
	}
	start, logN, err := a.st.WriteLine([][]byte{blk})
	if err != nil {
		return device.LineInfo{}, err
	}
	li, err := a.st.Heat(start, logN)
	if err != nil {
		return device.LineInfo{}, err
	}
	a.snapshots[root] = start
	a.stats.Snapshots++
	return li, nil
}

// VerifySnapshot checks a heated snapshot end to end: the heated line
// holding the root anchor, then the entire hierarchy under the root
// (every node re-hashed against its address).
func (a *Archive) VerifySnapshot(root Score) (device.VerifyReport, error) {
	start, ok := a.snapshots[root]
	if !ok {
		return device.VerifyReport{}, fmt.Errorf("%w: %v", ErrNotSnapshot, root)
	}
	rep, err := a.st.Verify(start)
	if err != nil {
		return rep, err
	}
	if !rep.OK {
		return rep, nil
	}
	// The anchored root block must still match the root score.
	anchored, err := a.st.Read(start + 1)
	if err != nil {
		return rep, err
	}
	if ScoreOf(anchored) != root {
		rep.OK = false
		rep.HashMismatch = true
		return rep, nil
	}
	// Walk the hierarchy.
	if _, err := a.ReadStream(root); err != nil {
		rep.OK = false
		return rep, err
	}
	return rep, nil
}

// Snapshots lists the anchored roots.
func (a *Archive) Snapshots() []Score {
	out := make([]Score, 0, len(a.snapshots))
	for s := range a.snapshots {
		out = append(out, s)
	}
	return out
}
