package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/attack"
	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/fossil"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/venti"
)

// E4Result is the §5 attack detection matrix.
type E4Result struct {
	// Results holds one outcome per attack.
	Results []attack.Result
}

// RunE4 prepares a victim file system and executes the full attack
// matrix.
func RunE4(seed uint64) (E4Result, error) {
	dev := quietDevice(2048)
	fs, err := lfs.New(dev, lfs.Params{
		SegmentBlocks: 32, CheckpointBlocks: 32, HeatAware: true, ReserveSegments: 2,
	})
	if err != nil {
		return E4Result{}, err
	}
	h, err := attack.NewHarness(fs, seed)
	if err != nil {
		return E4Result{}, err
	}
	return E4Result{Results: h.RunAll()}, nil
}

// Table renders the matrix.
func (r E4Result) Table() string {
	var b strings.Builder
	b.WriteString("E4 — §5 attack matrix\n")
	b.WriteString("attack        outcome     notes\n")
	for _, a := range r.Results {
		note := a.Notes
		if len(note) > 80 {
			note = note[:77] + "..."
		}
		fmt.Fprintf(&b, "%-13s %-11s %s\n", a.Name, a.Outcome(), note)
	}
	b.WriteString("paper §5: every attack on integrity/availability is prevented or detected\n")
	return b.String()
}

// E6Result measures the archival structures of §4.2 on SERO.
type E6Result struct {
	// Venti numbers.
	VentiBlocks uint64
	// VentiDeduped counts block writes the archive deduplicated.
	VentiDeduped     uint64
	VentiSnapshotGas time.Duration // heat cost per snapshot
	// VentiVerifyOK reports that the last snapshot verified.
	VentiVerifyOK bool
	// Fossil numbers.
	FossilInserts uint64
	// FossilNodes counts the index's nodes after the inserts.
	FossilNodes uint64
	// FossilHeated counts the nodes frozen into heated lines.
	FossilHeated uint64
	// FossilLookupOK reports that a lookup found an inserted record.
	FossilLookupOK bool
	// FossilVerifyOK reports that every heated node line verified.
	FossilVerifyOK bool
	// FossilInsertCost is the virtual time per insert.
	FossilInsertCost time.Duration
}

// RunE6 exercises the Venti archive (daily snapshots with heavy
// sharing) and the fossilized index (record ingest) on one store each.
func RunE6(seed uint64) (E6Result, error) {
	var res E6Result
	rng := sim.NewRNG(seed)

	// Venti: three "daily" snapshots of a dataset that changes 10%
	// per day — dedup should keep growth sublinear.
	st := core.NewStore(quietDevice(16384))
	arch := venti.New(st)
	data := make([]byte, 60*device.DataBytes)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	var lastRoot venti.Score
	for day := 0; day < 3; day++ {
		// Mutate 10% of blocks.
		for b := 0; b < 6; b++ {
			off := rng.Intn(60) * device.DataBytes
			for j := 0; j < device.DataBytes; j++ {
				data[off+j] = byte(rng.Uint64())
			}
		}
		root, err := arch.WriteStream(data)
		if err != nil {
			return res, err
		}
		t0 := st.Device().Clock().Now()
		if _, err := arch.Snapshot(root); err != nil {
			return res, err
		}
		res.VentiSnapshotGas = st.Device().Clock().Now() - t0
		lastRoot = root
	}
	rep, err := arch.VerifySnapshot(lastRoot)
	if err != nil {
		return res, err
	}
	res.VentiVerifyOK = rep.OK
	res.VentiBlocks = arch.Stats().BlocksWritten
	res.VentiDeduped = arch.Stats().BlocksDeduped

	// Fossil: ingest records, then verify.
	st2 := core.NewStore(quietDevice(16384))
	idx, err := fossil.New(st2)
	if err != nil {
		return res, err
	}
	const inserts = 200
	t0 := st2.Device().Clock().Now()
	for i := 0; i < inserts; i++ {
		if err := idx.Insert(fossil.KeyOf([]byte(fmt.Sprintf("record-%d", i))), uint64(i)); err != nil {
			return res, err
		}
	}
	res.FossilInsertCost = (st2.Device().Clock().Now() - t0) / inserts
	res.FossilInserts = inserts
	res.FossilNodes = idx.Stats().NodesTotal
	res.FossilHeated = idx.Stats().NodesHeated
	v, err := idx.Lookup(fossil.KeyOf([]byte("record-123")))
	res.FossilLookupOK = err == nil && v == 123
	reps, err := idx.Verify()
	if err != nil {
		return res, err
	}
	res.FossilVerifyOK = true
	for _, r := range reps {
		if !r.OK {
			res.FossilVerifyOK = false
		}
	}
	return res, nil
}

// Table renders E6.
func (r E6Result) Table() string {
	var b strings.Builder
	b.WriteString("E6 — archival structures on SERO (§4.2)\n")
	fmt.Fprintf(&b, "venti:  %d blocks written, %d deduped across 3 snapshots; snapshot heat cost %v; verify ok: %v\n",
		r.VentiBlocks, r.VentiDeduped, r.VentiSnapshotGas, r.VentiVerifyOK)
	fmt.Fprintf(&b, "fossil: %d inserts → %d nodes (%d heated); insert cost %v; lookup ok: %v; verify ok: %v\n",
		r.FossilInserts, r.FossilNodes, r.FossilHeated, r.FossilInsertCost, r.FossilLookupOK, r.FossilVerifyOK)
	b.WriteString("paper §4.2: heating replaces WORM copies for both index styles\n")
	return b.String()
}
