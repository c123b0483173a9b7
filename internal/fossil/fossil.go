// Package fossil implements a fossilized index [57] over the SERO
// store, per §4.2 of the paper: a tree built from the root downward,
// where the key's hash completely determines the slot and descent
// path, and where a node whose slots have all been filled becomes
// read-only. On a conventional system that requires copying the full
// node to a WORM device; on a SERO device "a completely filled node is
// simply heated" — no copy.
//
// The index maps 32-byte keys (hashes of the indexed records) to
// 64-bit values (e.g. physical block addresses). §5.2 also proposes it
// as rm-protection for directories.
package fossil

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sero/internal/core"
	"sero/internal/device"
)

// Node layout. Each node lives in block 1 of a 2-block line (block 0
// receives the hash when the node fills and is heated).
const (
	nodeMagic = "FIDX"
	// Branch is the tree fan-out; descent consumes branchBits bits of
	// the key hash per level.
	Branch     = 4
	branchBits = 2
	// SlotsPerNode is the number of key/value entries a node holds.
	SlotsPerNode = 10
	// header: magic(4) level(2) count(2) = 8; children: Branch*8;
	// entries: Slots*(32+8).
	nodeHeaderBytes = 8
)

// Entry is one key→value binding.
type Entry struct {
	Key   [sha256.Size]byte // the binding's SHA-256 key
	Value uint64            // the value bound to Key
}

// node is the in-memory image of an index node.
type node struct {
	line     uint64 // line start (hash block); node data at line+1
	level    uint16
	entries  []Entry
	children [Branch]uint64 // line starts of children; 0 = none
	heated   bool
}

// Index is a fossilized index.
type Index struct {
	st    *core.Store
	root  *node
	nodes map[uint64]*node // by line start

	stats Stats
}

// Stats counts index activity.
type Stats struct {
	Inserts     uint64 // Insert calls
	NodesHeated uint64 // nodes frozen into heated lines
	NodesTotal  uint64 // the index's nodes
}

// Index errors.
var (
	// ErrKeyNotFound reports a missing key.
	ErrKeyNotFound = errors.New("fossil: key not found")
	// ErrDuplicate reports an insert of an existing key. A fossilized
	// index is append-only: bindings are never updated.
	ErrDuplicate = errors.New("fossil: key already bound")
)

// New creates an index with a fresh root node.
func New(st *core.Store) (*Index, error) {
	idx := &Index{st: st, nodes: make(map[uint64]*node)}
	root, err := idx.newNode(0)
	if err != nil {
		return nil, err
	}
	idx.root = root
	return idx, nil
}

// Stats returns a copy of the counters.
func (idx *Index) Stats() Stats { return idx.stats }

// newNode allocates a 2-block line for a node and writes its empty
// image.
func (idx *Index) newNode(level uint16) (*node, error) {
	start, err := idx.st.AllocLine(1) // 2 blocks
	if err != nil {
		return nil, err
	}
	n := &node{line: start, level: level}
	if err := idx.writeNode(n); err != nil {
		return nil, err
	}
	idx.nodes[start] = n
	idx.stats.NodesTotal++
	return n, nil
}

// marshalNode encodes a node into one block.
func marshalNode(n *node) []byte {
	buf := make([]byte, device.DataBytes)
	copy(buf[0:4], nodeMagic)
	binary.BigEndian.PutUint16(buf[4:6], n.level)
	binary.BigEndian.PutUint16(buf[6:8], uint16(len(n.entries)))
	off := nodeHeaderBytes
	for _, c := range n.children {
		binary.BigEndian.PutUint64(buf[off:off+8], c)
		off += 8
	}
	for _, e := range n.entries {
		copy(buf[off:off+sha256.Size], e.Key[:])
		off += sha256.Size
		binary.BigEndian.PutUint64(buf[off:off+8], e.Value)
		off += 8
	}
	return buf
}

// unmarshalNode decodes a node block.
func unmarshalNode(line uint64, buf []byte) (*node, error) {
	if len(buf) != device.DataBytes || string(buf[0:4]) != nodeMagic {
		return nil, errors.New("fossil: not an index node")
	}
	n := &node{line: line}
	n.level = binary.BigEndian.Uint16(buf[4:6])
	count := int(binary.BigEndian.Uint16(buf[6:8]))
	if count > SlotsPerNode {
		return nil, fmt.Errorf("fossil: node with %d entries", count)
	}
	off := nodeHeaderBytes
	for i := range n.children {
		n.children[i] = binary.BigEndian.Uint64(buf[off : off+8])
		off += 8
	}
	for i := 0; i < count; i++ {
		var e Entry
		copy(e.Key[:], buf[off:off+sha256.Size])
		off += sha256.Size
		e.Value = binary.BigEndian.Uint64(buf[off : off+8])
		off += 8
		n.entries = append(n.entries, e)
	}
	return n, nil
}

// writeNode rewrites the node's block (WMRM until heated).
func (idx *Index) writeNode(n *node) error {
	if n.heated {
		return fmt.Errorf("fossil: rewriting heated node at %d", n.line)
	}
	return idx.st.Write(n.line+1, marshalNode(n))
}

// branchAt extracts the branch index consumed at the given level from
// the key hash.
func branchAt(key [sha256.Size]byte, level uint16) int {
	bitOff := int(level) * branchBits
	byteIdx := bitOff / 8
	if byteIdx >= sha256.Size {
		byteIdx %= sha256.Size // wrap for absurdly deep trees
	}
	shift := 8 - branchBits - (bitOff % 8)
	return int(key[byteIdx]>>shift) & (Branch - 1)
}

// Insert binds key→value. The path is fully determined by the key (a
// history-independent structure: layout reveals nothing about
// insertion order beyond node fill levels). When a node fills, its
// children are allocated, the node is rewritten with their addresses,
// and the node's line is heated — it is now immutable evidence.
func (idx *Index) Insert(key [sha256.Size]byte, value uint64) error {
	idx.stats.Inserts++
	n := idx.root
	for {
		// Duplicate check along the path.
		for _, e := range n.entries {
			if e.Key == key {
				return fmt.Errorf("%w: %x", ErrDuplicate, key[:8])
			}
		}
		if !n.heated && len(n.entries) < SlotsPerNode {
			n.entries = append(n.entries, Entry{Key: key, Value: value})
			if err := idx.writeNode(n); err != nil {
				return err
			}
			if len(n.entries) == SlotsPerNode {
				return idx.freeze(n)
			}
			return nil
		}
		// Node full (and frozen): descend.
		b := branchAt(key, n.level)
		childLine := n.children[b]
		if childLine == 0 {
			return fmt.Errorf("fossil: heated node at %d lacks child %d", n.line, b)
		}
		child, ok := idx.nodes[childLine]
		if !ok {
			return fmt.Errorf("fossil: dangling child line %d", childLine)
		}
		n = child
	}
}

// freeze allocates the node's children, rewrites it with their
// addresses, and heats its line.
func (idx *Index) freeze(n *node) error {
	for b := 0; b < Branch; b++ {
		child, err := idx.newNode(n.level + 1)
		if err != nil {
			return err
		}
		n.children[b] = child.line
	}
	if err := idx.writeNode(n); err != nil {
		return err
	}
	if _, err := idx.st.Heat(n.line, 1); err != nil {
		return err
	}
	n.heated = true
	idx.stats.NodesHeated++
	return nil
}

// Lookup resolves a key.
func (idx *Index) Lookup(key [sha256.Size]byte) (uint64, error) {
	n := idx.root
	for {
		for _, e := range n.entries {
			if e.Key == key {
				return e.Value, nil
			}
		}
		b := branchAt(key, n.level)
		childLine := n.children[b]
		if childLine == 0 {
			return 0, fmt.Errorf("%w: %x", ErrKeyNotFound, key[:8])
		}
		child, ok := idx.nodes[childLine]
		if !ok {
			return 0, fmt.Errorf("fossil: dangling child line %d", childLine)
		}
		n = child
	}
}

// Len returns the number of bound keys.
func (idx *Index) Len() int {
	total := 0
	for _, n := range idx.nodes {
		total += len(n.entries)
	}
	return total
}

// HeatedNodes returns how many nodes have been frozen.
func (idx *Index) HeatedNodes() int { return int(idx.stats.NodesHeated) }

// Verify re-checks every heated node line on the device and confirms
// that every node block still parses and its entries are reachable.
// It returns the device reports for heated nodes.
func (idx *Index) Verify() ([]device.VerifyReport, error) {
	var out []device.VerifyReport
	for line, n := range idx.nodes {
		if !n.heated {
			continue
		}
		rep, err := idx.st.Verify(line)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Load rebuilds an index from the store by walking node lines from the
// given root line. Used after remount.
func Load(st *core.Store, rootLine uint64) (*Index, error) {
	idx := &Index{st: st, nodes: make(map[uint64]*node)}
	heatedLines := make(map[uint64]bool)
	for _, li := range st.Lines() {
		heatedLines[li.Start] = true
	}
	var walk func(line uint64, level uint16) (*node, error)
	walk = func(line uint64, level uint16) (*node, error) {
		data, err := st.Read(line + 1)
		if err != nil {
			return nil, err
		}
		n, err := unmarshalNode(line, data)
		if err != nil {
			return nil, err
		}
		if n.level != level {
			return nil, fmt.Errorf("fossil: node at %d has level %d, want %d", line, n.level, level)
		}
		n.heated = heatedLines[line]
		idx.nodes[line] = n
		idx.stats.NodesTotal++
		if n.heated {
			idx.stats.NodesHeated++
			for _, c := range n.children {
				if c != 0 {
					if _, err := walk(c, level+1); err != nil {
						return nil, err
					}
				}
			}
		}
		return n, nil
	}
	root, err := walk(rootLine, 0)
	if err != nil {
		return nil, err
	}
	idx.root = root
	return idx, nil
}

// RootLine returns the root node's line start, the handle needed by
// Load.
func (idx *Index) RootLine() uint64 { return idx.root.line }

// KeyOf hashes an arbitrary byte key into the index key space.
func KeyOf(k []byte) [sha256.Size]byte { return sha256.Sum256(k) }
