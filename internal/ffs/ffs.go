// Package ffs implements the update-in-place, cluster-based file
// system alternative the paper discusses at the end of §4.1: "the
// Berkeley Fast File System (FFS) uses clusters to pack small files
// with their metadata ... The discussion above on bimodality holds for
// these file systems as well; FFS-like clustering policies should
// maintain mostly heated clusters and mostly unheated clusters."
//
// The implementation is deliberately minimal — enough structure
// (cylinder groups, per-group free bitmaps, in-place rewrites, group
// affinity for related blocks) for the heat-clustering policy to have
// the same meaning as in the LFS, so experiment E12 can compare the
// two designs under identical workloads. It shares the inode wire
// format with package lfs, so heated files are recoverable by the same
// fsck tooling.
package ffs

import (
	"errors"
	"fmt"

	"sero/internal/device"
	"sero/internal/lfs"
)

// Params configures the file system.
type Params struct {
	// GroupBlocks is the cylinder-group size in blocks (power of two).
	GroupBlocks int
	// HeatAware reserves dedicated heat groups and relocates heated
	// lines into them; disabled, lines are carved from the file's own
	// group (the §4.1 baseline).
	HeatAware bool
}

// DefaultParams returns a 64-block-group heat-aware configuration.
func DefaultParams() Params { return Params{GroupBlocks: 64, HeatAware: true} }

// FS errors.
var (
	// ErrNotFound reports an unknown file.
	ErrNotFound = errors.New("ffs: file not found")
	// ErrExists reports a duplicate create.
	ErrExists = errors.New("ffs: file exists")
	// ErrFileHeated reports mutation of a frozen file.
	ErrFileHeated = errors.New("ffs: file is heated (read-only)")
	// ErrFull reports allocation failure.
	ErrFull = errors.New("ffs: no free blocks in any suitable group")
)

// group is one cylinder group.
type group struct {
	id    int
	start uint64
	used  []bool
	free  int
	// heatGroup marks a group dedicated to heated lines.
	heatGroup bool
	// heatedBlocks counts blocks inside heated lines.
	heatedBlocks int
	// liveBlocks counts allocated non-heated blocks.
	liveBlocks int
	// cursor is the next-fit scan position.
	cursor int
}

// file is the in-memory file record.
type file struct {
	name     string
	affinity uint8
	groupID  int // home group
	inode    *lfs.Inode
}

// FS is a simplified FFS over a SERO device.
type FS struct {
	dev    *device.Device
	p      Params
	groups []*group
	files  map[string]*file
	nextIn lfs.Ino

	stats Stats
}

// Stats counts activity.
type Stats struct {
	BlocksAllocated uint64 // blocks taken from the free maps, heated lines included
	BlocksFreed     uint64 // blocks returned to their group's free map
	HeatedFiles     uint64 // files frozen by HeatFile
}

// New formats an FFS onto dev.
func New(dev *device.Device, p Params) (*FS, error) {
	if p.GroupBlocks <= 0 {
		p = DefaultParams()
	}
	if p.GroupBlocks&(p.GroupBlocks-1) != 0 {
		return nil, fmt.Errorf("ffs: group size %d not a power of two", p.GroupBlocks)
	}
	n := dev.Blocks() / p.GroupBlocks
	if n < 2 {
		return nil, fmt.Errorf("ffs: device too small for two groups of %d", p.GroupBlocks)
	}
	fs := &FS{
		dev:    dev,
		p:      p,
		files:  make(map[string]*file),
		nextIn: lfs.RootIno + 1,
	}
	for i := 0; i < n; i++ {
		fs.groups = append(fs.groups, &group{
			id:    i,
			start: uint64(i * p.GroupBlocks),
			used:  make([]bool, p.GroupBlocks),
			free:  p.GroupBlocks,
		})
	}
	return fs, nil
}

// Device returns the underlying device.
func (fs *FS) Device() *device.Device { return fs.dev }

// Stats returns a copy of the counters.
func (fs *FS) Stats() Stats { return fs.stats }

// homeGroup picks the home group for a new file. FFS clusters files of
// one directory into the same cylinder group; with a single root
// directory that means packing groups in order until they run low,
// then moving on (the spread-directories half of the heuristic has no
// work to do here).
func (fs *FS) homeGroup() *group {
	const lowWater = 4 // leave room for a few blocks before moving on
	for _, g := range fs.groups {
		if g.heatGroup {
			continue
		}
		if g.free >= lowWater {
			return g
		}
	}
	// Everything is nearly full: take whatever has any space.
	for _, g := range fs.groups {
		if !g.heatGroup && g.free > 0 {
			return g
		}
	}
	return nil
}

// Create makes an empty file with a home group.
func (fs *FS) Create(name string, affinity uint8) error {
	if name == "" {
		return errors.New("ffs: empty name")
	}
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	g := fs.homeGroup()
	if g == nil {
		return ErrFull
	}
	fs.files[name] = &file{
		name:     name,
		affinity: affinity,
		groupID:  g.id,
		inode:    &lfs.Inode{Ino: fs.nextIn, Affinity: affinity},
	}
	fs.nextIn++
	return nil
}

// allocInGroup takes one free block from g, preferring proximity to
// the cursor (next-fit: FFS's rotational-position optimisation,
// degenerated for a seek model without rotation).
func (fs *FS) allocInGroup(g *group) (uint64, bool) {
	if g.free == 0 {
		return 0, false
	}
	for i := 0; i < len(g.used); i++ {
		idx := (g.cursor + i) % len(g.used)
		if !g.used[idx] {
			g.used[idx] = true
			g.free--
			g.liveBlocks++
			g.cursor = idx + 1
			fs.stats.BlocksAllocated++
			return g.start + uint64(idx), true
		}
	}
	return 0, false
}

// alloc takes a block near the file's home group, spilling to the
// least-loaded group when home is full.
func (fs *FS) alloc(f *file) (uint64, error) {
	if pba, ok := fs.allocInGroup(fs.groups[f.groupID]); ok {
		return pba, nil
	}
	var best *group
	for _, g := range fs.groups {
		if g.heatGroup {
			continue
		}
		if best == nil || g.free > best.free {
			best = g
		}
	}
	if best == nil || best.free == 0 {
		return 0, ErrFull
	}
	pba, _ := fs.allocInGroup(best)
	return pba, nil
}

// freeBlock returns a block to its group.
func (fs *FS) freeBlock(pba uint64) {
	g := fs.groups[int(pba)/fs.p.GroupBlocks]
	idx := int(pba - g.start)
	if g.used[idx] {
		g.used[idx] = false
		g.free++
		g.liveBlocks--
		fs.stats.BlocksFreed++
	}
}

// WriteFile writes the whole file content in place: existing blocks
// are rewritten where they are (the defining FFS behaviour), new
// blocks are allocated near home.
func (fs *FS) WriteFile(name string, data []byte) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if f.inode.Heated() {
		return fmt.Errorf("%w: %s", ErrFileHeated, name)
	}
	need := (len(data) + device.DataBytes - 1) / device.DataBytes
	// Shrink: free surplus blocks.
	for len(f.inode.Blocks) > need {
		last := f.inode.Blocks[len(f.inode.Blocks)-1]
		fs.freeBlock(last)
		f.inode.Blocks = f.inode.Blocks[:len(f.inode.Blocks)-1]
	}
	// Grow: allocate near home.
	for len(f.inode.Blocks) < need {
		pba, err := fs.alloc(f)
		if err != nil {
			return err
		}
		f.inode.Blocks = append(f.inode.Blocks, pba)
	}
	buf := make([]byte, device.DataBytes)
	for i, pba := range f.inode.Blocks {
		for j := range buf {
			buf[j] = 0
		}
		end := (i + 1) * device.DataBytes
		if end > len(data) {
			end = len(data)
		}
		copy(buf, data[i*device.DataBytes:end])
		if err := fs.dev.MWS(pba, buf); err != nil {
			return err
		}
	}
	f.inode.Size = uint64(len(data))
	return nil
}

// ReadFile returns the file content.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	out := make([]byte, 0, f.inode.Size)
	for _, pba := range f.inode.Blocks {
		data, err := fs.dev.MRS(pba)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
	}
	if uint64(len(out)) > f.inode.Size {
		out = out[:f.inode.Size]
	}
	return out, nil
}

// Delete removes an unheated file.
func (fs *FS) Delete(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if f.inode.Heated() {
		return fmt.Errorf("%w: %s", ErrFileHeated, name)
	}
	for _, pba := range f.inode.Blocks {
		fs.freeBlock(pba)
	}
	delete(fs.files, name)
	return nil
}
