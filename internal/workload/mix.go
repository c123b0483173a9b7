package workload

import (
	"fmt"

	"sero/internal/device"
	"sero/internal/sim"
)

// Mix generates the serving-tier workload: a fixed ring of files is
// created and seeded with one block each (the population phase), then
// Ops operations are drawn from a weighted create/append/read/rename/
// delete mix, with file popularity following a zipfian distribution
// (low slot indices are hot) and optional burst phases during which a
// run of appends lands back-to-back with no interleaved syncs — the
// Rosenblum-style hot/cold skew generalised to the full namespace op
// set. Each Mix instance owns a disjoint namespace shard selected by
// Prefix, so N concurrent sessions can replay N independently seeded
// streams against one file system without colliding.
//
// The stream is applicable by construction: deletes never empty the
// population, creates resurrect previously deleted slots under a fresh
// generation name (degrading to an append when nothing is deleted),
// renames bump a live slot's generation, and every target of a
// read/append/rename/delete is live when the op is reached.
type Mix struct {
	// Files is the population ring size; the stream starts by creating
	// and seeding this many files.
	Files int
	// FileBlocks caps each file's size in blocks; appends beyond the
	// cap overwrite a random block in place.
	FileBlocks int
	// Ops is the number of mix operations after the population phase.
	Ops int
	// Prefix is the namespace shard tag names are minted under
	// (default "mx"); concurrent sessions must use distinct prefixes.
	Prefix string
	// Affinity is the heat-affinity class of created files.
	Affinity uint8
	// CreateW, AppendW, ReadW, RenameW and DeleteW weight the op mix;
	// they need not sum to 1 but must be non-negative and not all zero.
	CreateW, AppendW, ReadW, RenameW, DeleteW float64
	// ZipfTheta skews file popularity (0 = uniform; serving mixes use
	// ≈0.9). Must be below 1.
	ZipfTheta float64
	// SyncEvery inserts a sync after this many mix ops outside bursts
	// (0 = only the final sync). The population phase syncs at the
	// same cadence so group-commit buffers stay bounded.
	SyncEvery int
	// BurstEvery and BurstLen shape burst phases: every BurstEvery
	// ops, the next BurstLen ops are forced appends with no
	// interleaved syncs. 0 disables bursts.
	BurstEvery, BurstLen int
}

// DefaultMix returns the standard serving mix: read-mostly with
// appends, light namespace churn, zipfian 0.9 popularity and short
// append bursts.
func DefaultMix(files, ops int) Mix {
	return Mix{
		Files:      files,
		FileBlocks: 4,
		Ops:        ops,
		Prefix:     "mx",
		CreateW:    0.05,
		AppendW:    0.30,
		ReadW:      0.45,
		RenameW:    0.08,
		DeleteW:    0.12,
		ZipfTheta:  0.9,
		SyncEvery:  64,
		BurstEvery: 512,
		BurstLen:   32,
	}
}

// SessionSeed derives session i's stream seed from a run seed, so N
// concurrent sessions replay N independently seeded streams of one
// Mix.
func SessionSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
}

// mixSlot tracks one population-ring entry while generating.
type mixSlot struct {
	gen    int // generation, bumped by rename and delete/create churn
	blocks int // blocks written so far (≤ FileBlocks)
	live   bool
}

// name mints the slot's current file name.
func (w Mix) name(slot, gen int) string {
	prefix := w.Prefix
	if prefix == "" {
		prefix = "mx"
	}
	return fmt.Sprintf("%s-f%06d-g%04d", prefix, slot, gen)
}

// Generate produces the op stream. It panics with a diagnostic on a
// nonsensical configuration, like the other generators.
func (w Mix) Generate(rng *sim.RNG) []Op {
	wsum := w.CreateW + w.AppendW + w.ReadW + w.RenameW + w.DeleteW
	if w.Files <= 0 || w.FileBlocks <= 0 || w.Ops < 0 || w.SyncEvery < 0 ||
		w.BurstEvery < 0 || w.BurstLen < 0 || w.ZipfTheta < 0 || w.ZipfTheta >= 1 ||
		w.CreateW < 0 || w.AppendW < 0 || w.ReadW < 0 || w.RenameW < 0 || w.DeleteW < 0 ||
		wsum <= 0 {
		panic(fmt.Sprintf("workload: bad Mix %+v", w))
	}
	zipf := NewZipfian(w.Files, w.ZipfTheta)
	slots := make([]mixSlot, w.Files)
	var freelist []int // dead slots, resurrection order LIFO
	liveCount := w.Files

	ops := make([]Op, 0, 2*w.Files+w.Ops+w.Ops/16+2)
	sinceSync := 0
	sync := func() {
		ops = append(ops, Op{Kind: OpSync})
		sinceSync = 0
	}

	// Population phase: create the ring and seed every file with one
	// block so reads hit real data from the first mix op.
	for i := range slots {
		slots[i].live = true
		n := w.name(i, 0)
		ops = append(ops,
			Op{Kind: OpCreate, Name: n, Affinity: w.Affinity},
			Op{Kind: OpWrite, Name: n, Offset: 0, Data: randBlock(rng)},
		)
		slots[i].blocks = 1
		sinceSync += 2
		if w.SyncEvery > 0 && sinceSync >= w.SyncEvery {
			sync()
		}
	}

	// pick returns the hottest live slot at or after the zipfian draw
	// (wrapping), so deletes cannot strand a draw.
	pick := func() int {
		idx := zipf.Next(rng)
		for !slots[idx].live {
			idx = (idx + 1) % len(slots)
		}
		return idx
	}

	burstLeft := 0
	for i := 0; i < w.Ops; i++ {
		if w.BurstEvery > 0 && w.BurstLen > 0 && i%w.BurstEvery == 0 {
			burstLeft = w.BurstLen
		}
		kind := OpWrite
		if burstLeft > 0 {
			burstLeft--
		} else {
			r := rng.Float64() * wsum
			switch {
			case r < w.CreateW:
				kind = OpCreate
			case r < w.CreateW+w.AppendW:
				kind = OpWrite
			case r < w.CreateW+w.AppendW+w.ReadW:
				kind = OpRead
			case r < w.CreateW+w.AppendW+w.ReadW+w.RenameW:
				kind = OpRename
			default:
				kind = OpDelete
			}
		}
		switch kind {
		case OpCreate:
			if len(freelist) == 0 {
				// Nothing deleted to resurrect: churn degrades to an
				// append so the ring size stays fixed.
				kind = OpWrite
				break
			}
			s := freelist[len(freelist)-1]
			freelist = freelist[:len(freelist)-1]
			slots[s].gen++
			slots[s].blocks = 0
			slots[s].live = true
			liveCount++
			ops = append(ops, Op{Kind: OpCreate, Name: w.name(s, slots[s].gen), Affinity: w.Affinity})
		case OpRead:
			s := pick()
			blk := 0
			if slots[s].blocks > 0 {
				blk = rng.Intn(slots[s].blocks)
			}
			ops = append(ops, Op{
				Kind:   OpRead,
				Name:   w.name(s, slots[s].gen),
				Offset: uint64(blk * device.DataBytes),
				Length: device.DataBytes,
			})
		case OpRename:
			s := pick()
			old := w.name(s, slots[s].gen)
			slots[s].gen++
			ops = append(ops, Op{Kind: OpRename, Name: old, NewName: w.name(s, slots[s].gen)})
		case OpDelete:
			if liveCount <= 1 {
				kind = OpWrite
				break
			}
			s := pick()
			slots[s].live = false
			liveCount--
			freelist = append(freelist, s)
			ops = append(ops, Op{Kind: OpDelete, Name: w.name(s, slots[s].gen)})
		}
		if kind == OpWrite {
			s := pick()
			blk := slots[s].blocks
			if blk >= w.FileBlocks {
				blk = rng.Intn(w.FileBlocks)
			} else {
				slots[s].blocks++
			}
			ops = append(ops, Op{
				Kind:   OpWrite,
				Name:   w.name(s, slots[s].gen),
				Offset: uint64(blk * device.DataBytes),
				Data:   randBlock(rng),
			})
		}
		sinceSync++
		if w.SyncEvery > 0 && burstLeft == 0 && sinceSync >= w.SyncEvery {
			sync()
		}
	}
	sync()
	return ops
}

// randBlock fills one block with pseudo-random content.
func randBlock(rng *sim.RNG) []byte {
	data := make([]byte, device.DataBytes)
	for j := range data {
		data[j] = byte(rng.Uint64())
	}
	return data
}
