package main

import (
	"fmt"

	"sero/internal/sim"
	"sero/internal/workload"
)

// spec is one benchmark workload: a closed loop of Sessions sessions,
// each replaying its own workload.Mix stream and issuing its next op
// only when the previous one returns. Every size is explicit: the
// simulated medium costs about 57 KB of host memory per device block,
// so the device is the run's memory budget.
type spec struct {
	name string
	// sessions is the closed-loop client count.
	sessions int
	// files is the namespace every repetition populates during set-up,
	// split over the sessions; ops is the mix-op budget of the
	// measured phase, split likewise. warmOps more mix ops are
	// replayed during set-up, after the population, so the measured
	// phase starts on an aged FS.
	files, ops, warmOps int
	// create, append, read, rename and delete weight the mix.
	create, append, read, rename, delete float64
	// zipf is the file-popularity skew.
	zipf float64
	// deviceBlocks is the capacity lfs formats (for an array, the
	// global data capacity; each member is sized to carry its share).
	deviceBlocks int
	// members and parity describe the array; members 0 is a raw sled.
	members, parity int
	// segmentBlocks, concurrency and classes are the FS settings:
	// segment size, worker planes and heat-affinity classes.
	segmentBlocks, concurrency, classes int
	// preSeal evidence files, plus 0–3 more drawn from the seed, are
	// sealed during set-up, right after format, so the auditor has
	// lines to sweep from the first measured op.
	preSeal int
	// sealEvery and auditEvery are the harness's in-phase cadences
	// (every K mix ops: seal one evidence file; every K′: one
	// AuditStep of auditBatch lines). 0 turns the lane off.
	sealEvery, auditEvery, auditBatch int
	// tailRounds audit rounds are swept, then tailSeals evidence files
	// sealed, after the measured phase on workloads without the lanes,
	// so every workload reports seal and audit figures.
	tailSeals, tailRounds int
	// sealClasses is how many heat-affinity classes the evidence files
	// are spread over (each class fills its own heat segments).
	sealClasses int
	// cleaner states whether the cleaner must run (true) or must not.
	// A cleaning workload also checkpoints before its epilogue (so the
	// seals time sealing, not the cleaner's backlog) and twice at the
	// end, so its mount reads two equal checkpoint slots and no journal
	// tail; the others end with a Sync and mount through the tail.
	cleaner bool
	// readTail and syncTail are the percentiles the *_tail metrics
	// report: the highest of p99, p95 and p90 with at least ten samples
	// beyond it in one repetition.
	readTail, syncTail float64
}

var specs = []spec{
	{
		// The serving path under contention: two sessions share fs.mu
		// and the sled, so lock wait and queueing show in the tails.
		name: "serve-zipf-2s", sessions: 2,
		files: 2048, ops: 8192,
		create: 0.05, append: 0.30, read: 0.45, rename: 0.08, delete: 0.12, zipf: 0.9,
		deviceBlocks: 16384, segmentBlocks: 256, concurrency: 4, classes: 4,
		preSeal: 120, tailSeals: 64, tailRounds: 2, sealClasses: 4,
		readTail: 0.99, syncTail: 0.90,
	},
	{
		// Write-heavy churn that keeps the cleaner busy: the cleaner,
		// checkpoints and write amplification. Popularity is only mildly
		// skewed (zipfian 0.5) so overwrites spread over the namespace
		// and every run cleans in the same steady regime.
		name: "churn-clean-1s", sessions: 1,
		files: 1024, ops: 16384, warmOps: 8192,
		create: 0.15, append: 0.50, read: 0.10, rename: 0.10, delete: 0.15, zipf: 0.5,
		deviceBlocks: 8192, segmentBlocks: 256, concurrency: 4, classes: 4,
		preSeal: 56, tailSeals: 64, tailRounds: 2, sealClasses: 1,
		cleaner:  true,
		readTail: 0.95, syncTail: 0.90,
	},
	{
		// The tamper-evidence path: seals (heat), incremental audit
		// with parity repair armed, over a 4-member array with one
		// parity member.
		name: "seal-audit-array4", sessions: 1,
		files: 2048, ops: 8192,
		create: 0.05, append: 0.30, read: 0.45, rename: 0.08, delete: 0.12, zipf: 0.9,
		deviceBlocks: 16384, members: 4, parity: 1,
		segmentBlocks: 256, concurrency: 4, classes: 4,
		preSeal: 32, sealEvery: 64, auditEvery: 16, auditBatch: 4, sealClasses: 4,
		readTail: 0.99, syncTail: 0.90,
	},
}

// evidenceFiles is the number of evidence files one repetition seals.
func (s spec) evidenceFiles() int {
	n := s.preSeal + 3 + s.tailSeals
	if s.sealEvery > 0 {
		n += s.ops / s.sealEvery
	}
	return n
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sessionSeed derives session i's stream seed from the run seed.
func sessionSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
}

// streams generates every session's op stream from the seed and splits
// each into the population prefix (replayed during set-up) and the
// measured mix ops.
func (s spec) streams(seed uint64) (pop, mix [][]workload.Op) {
	for i := 0; i < s.sessions; i++ {
		files, ops := share(s.files, s.sessions, i), share(s.ops, s.sessions, i)
		warm := share(s.warmOps, s.sessions, i)
		m := workload.Mix{
			Files: files, FileBlocks: 4, Ops: warm + ops,
			Prefix:   fmt.Sprintf("s%03d", i),
			Affinity: uint8(i % s.classes),
			CreateW:  s.create, AppendW: s.append, ReadW: s.read, RenameW: s.rename, DeleteW: s.delete,
			ZipfTheta: s.zipf, SyncEvery: 64, BurstEvery: 512, BurstLen: 32,
		}
		ops0 := m.Generate(sim.NewRNG(sessionSeed(seed, i)))
		// Set-up replays the population phase (2·files creates and seed
		// writes) and the first warm mix ops, with the syncs among them.
		cut, n := 0, 0
		for cut < len(ops0) && n < 2*files+warm {
			if ops0[cut].Kind != workload.OpSync {
				n++
			}
			cut++
		}
		pop = append(pop, ops0[:cut])
		mix = append(mix, ops0[cut:])
	}
	return pop, mix
}

// share is part i of n of total, the first parts taking the remainder.
func share(total, n, i int) int {
	v := total / n
	if i < total%n {
		v++
	}
	return v
}
