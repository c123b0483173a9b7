package ffs

import (
	"fmt"

	"sero/internal/device"
	"sero/internal/lfs"
)

// Heating under FFS: same line layout as the LFS
// ([hash][inode][data...]), but the placement policy is
// group-oriented:
//
//   - Heat-aware: the line goes into a dedicated heat group; the
//     file's old in-place blocks are freed, keeping data groups purely
//     WMRM ("mostly heated clusters and mostly unheated clusters").
//   - Oblivious: the line is carved from the file's home group,
//     permanently welding a read-only region into the middle of a
//     WMRM group; the group's remaining free space fragments around
//     it.

// HeatResult describes a completed heat.
type HeatResult struct {
	Name string
	Line device.LineInfo
}

// HeatFile freezes a file into one heated line.
func (fs *FS) HeatFile(name string) (HeatResult, error) {
	f, ok := fs.files[name]
	if !ok {
		return HeatResult{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if f.inode.Heated() {
		return HeatResult{}, fmt.Errorf("%w: %s", ErrFileHeated, name)
	}
	need := 2 + len(f.inode.Blocks)
	logN := device.LineExponent(need)
	size := 1 << logN
	if size > fs.p.GroupBlocks {
		return HeatResult{}, fmt.Errorf("ffs: line of %d blocks exceeds group size %d", size, fs.p.GroupBlocks)
	}

	g, off, err := fs.allocLineRun(f, size)
	if err != nil {
		return HeatResult{}, err
	}
	start := g.start + uint64(off)

	// Relocate with final pointers.
	newBlocks := make([]uint64, len(f.inode.Blocks))
	for i := range newBlocks {
		newBlocks[i] = start + 2 + uint64(i)
	}
	frozen := &lfs.Inode{
		Ino:       f.inode.Ino,
		Size:      f.inode.Size,
		Flags:     f.inode.Flags | lfs.FlagHeated,
		Affinity:  f.affinity,
		Blocks:    newBlocks,
		HeatLines: []uint64{start},
	}
	ibuf, err := frozen.Marshal()
	if err != nil {
		return HeatResult{}, err
	}
	if err := fs.dev.MWS(start+1, ibuf); err != nil {
		return HeatResult{}, err
	}
	for i, old := range f.inode.Blocks {
		data, rerr := fs.dev.MRS(old)
		if rerr != nil {
			return HeatResult{}, rerr
		}
		if werr := fs.dev.MWS(newBlocks[i], data); werr != nil {
			return HeatResult{}, werr
		}
	}
	zero := make([]byte, device.DataBytes)
	for pba := start + uint64(need); pba < start+uint64(size); pba++ {
		if err := fs.dev.MWS(pba, zero); err != nil {
			return HeatResult{}, err
		}
	}
	li, err := fs.dev.HeatLine(start, logN)
	if err != nil {
		return HeatResult{}, err
	}

	// Free the old in-place blocks; the line's blocks were marked used
	// at carve time and are accounted as heated, not live.
	for _, old := range f.inode.Blocks {
		fs.freeBlock(old)
	}
	g.heatedBlocks += size
	f.inode = frozen
	fs.stats.HeatedFiles++
	return HeatResult{Name: name, Line: li}, nil
}

// allocLineRun finds an aligned free run of size blocks for a heated
// line, per the placement policy.
func (fs *FS) allocLineRun(f *file, size int) (*group, int, error) {
	if fs.p.HeatAware {
		// Existing heat group with room first.
		for _, g := range fs.groups {
			if g.heatGroup {
				if off, ok := findAlignedRun(g, size); ok {
					claimRun(g, off, size, fs)
					return g, off, nil
				}
			}
		}
		// Convert an empty group into a heat group.
		for _, g := range fs.groups {
			if !g.heatGroup && g.liveBlocks == 0 && g.free == len(g.used) {
				g.heatGroup = true
				off, _ := findAlignedRun(g, size)
				claimRun(g, off, size, fs)
				return g, off, nil
			}
		}
		return nil, 0, ErrFull
	}
	// Oblivious: carve from the home group, spilling anywhere.
	candidates := append([]*group{fs.groups[f.groupID]}, fs.groups...)
	for _, g := range candidates {
		if off, ok := findAlignedRun(g, size); ok {
			claimRun(g, off, size, fs)
			return g, off, nil
		}
	}
	return nil, 0, ErrFull
}

// findAlignedRun locates a free run of size blocks aligned to size
// within g.
func findAlignedRun(g *group, size int) (int, bool) {
	for off := 0; off+size <= len(g.used); off += size {
		ok := true
		for i := off; i < off+size; i++ {
			if g.used[i] {
				ok = false
				break
			}
		}
		if ok {
			return off, true
		}
	}
	return 0, false
}

// claimRun marks the run used.
func claimRun(g *group, off, size int, fs *FS) {
	for i := off; i < off+size; i++ {
		g.used[i] = true
	}
	g.free -= size
	fs.stats.BlocksAllocated += uint64(size)
}

// VerifyFile checks the heated file's line.
func (fs *FS) VerifyFile(name string) (device.VerifyReport, error) {
	f, ok := fs.files[name]
	if !ok {
		return device.VerifyReport{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if !f.inode.Heated() {
		return device.VerifyReport{}, fmt.Errorf("ffs: file %s is not heated", name)
	}
	return fs.dev.VerifyLine(f.inode.HeatLines[0])
}

// GroupInfo is the exported view of one cylinder group.
type GroupInfo struct {
	ID           int
	FreeBlocks   int
	LiveBlocks   int
	HeatedBlocks int
	Blocks       int
	HeatGroup    bool
	// LargestFreeRun measures intra-group fragmentation.
	LargestFreeRun int
}

// Groups snapshots the group table.
func (fs *FS) Groups() []GroupInfo {
	out := make([]GroupInfo, 0, len(fs.groups))
	for _, g := range fs.groups {
		gi := GroupInfo{
			ID:           g.id,
			FreeBlocks:   g.free,
			LiveBlocks:   g.liveBlocks,
			HeatedBlocks: g.heatedBlocks,
			Blocks:       len(g.used),
			HeatGroup:    g.heatGroup,
		}
		run, best := 0, 0
		for _, u := range g.used {
			if u {
				run = 0
				continue
			}
			run++
			if run > best {
				best = run
			}
		}
		gi.LargestFreeRun = best
		out = append(out, gi)
	}
	return out
}

// Bimodality mirrors the LFS metric: the fraction of non-empty groups
// whose used space is almost entirely heated or almost entirely
// unheated.
func (fs *FS) Bimodality() float64 {
	total, modal := 0, 0
	for _, g := range fs.groups {
		used := len(g.used) - g.free
		if used == 0 {
			continue
		}
		total++
		frac := float64(g.heatedBlocks) / float64(used)
		if frac < 0.1 || frac > 0.9 {
			modal++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(modal) / float64(total)
}

// FragmentationIndex measures how shattered the free space of the
// *live data groups* is: 1 − (largest free run in any group holding
// live data)/(group size). Heated lines welded into WMRM groups
// (oblivious placement) consume the contiguous tails those groups
// would otherwise keep, driving the index up; heat-aware placement
// leaves data groups' free space contiguous.
func (fs *FS) FragmentationIndex() float64 {
	largest := 0
	seen := false
	for _, gi := range fs.Groups() {
		if gi.LiveBlocks == 0 {
			continue
		}
		seen = true
		if gi.LargestFreeRun > largest {
			largest = gi.LargestFreeRun
		}
	}
	if !seen {
		return 0
	}
	return 1 - float64(largest)/float64(fs.p.GroupBlocks)
}
