package experiments

import (
	"fmt"
	"strings"
	"time"

	"sero/internal/core"
	"sero/internal/device"
	"sero/internal/retention"
	"sero/internal/sim"
)

// E8 — device lifetime (§8 "Efficiency" and "Deletion"): under a
// steady compliance-ingest load the read/write area gradually shrinks
// and the read-only area grows until the device is a pure read-only
// archive and can be decommissioned once every retention period has
// lapsed. The experiment traces that ageing curve and exercises the
// policy-gated shred path along the way.

// E8Point samples the device state during its life.
type E8Point struct {
	// IngestedRecords counts records ingested when the sample was taken.
	IngestedRecords int
	// ReadOnlyRatio is the share of the device inside heated lines.
	ReadOnlyRatio float64
	// FreeBlocks counts the blocks still allocatable.
	FreeBlocks int
	// Fragmentation is the allocator's fragmentation index.
	Fragmentation float64
	// VirtualTime is the device clock at the sample.
	VirtualTime time.Duration
}

// E8Result is the ageing trace.
type E8Result struct {
	// Points samples the device from format to full, in ingest order.
	Points []E8Point
	// RecordsUntilFull counts ingests accepted before the device
	// filled up.
	RecordsUntilFull int
	// ShreddedRecords counts records destroyed by the retention policy
	// during the run.
	ShreddedRecords int
	// Decommissionable reports whether the device ended its life with
	// every record expired.
	Decommissionable bool
	// EvidenceSurvives reports whether every shredded record still
	// verifies as "tampered/destroyed" rather than silently vanishing.
	EvidenceSurvives bool
}

// RunE8 ingests records of mixed retention classes until the device is
// full, shredding expired records as it goes.
func RunE8(seed uint64) (E8Result, error) {
	st := core.NewStore(quietDevice(2048))
	mgr := retention.NewManager(st,
		retention.Policy{Class: "ephemeral", Period: 200 * time.Millisecond},
		retention.Policy{Class: "archive", Period: time.Hour},
	)
	rng := sim.NewRNG(seed)

	var res E8Result
	sample := func(n int) {
		lc := st.Lifecycle()
		res.Points = append(res.Points, E8Point{
			IngestedRecords: n,
			ReadOnlyRatio:   lc.ReadOnlyRatio,
			FreeBlocks:      lc.FreeBlocks,
			Fragmentation:   lc.Fragmentation,
			VirtualTime:     lc.VirtualTime,
		})
	}

	sample(0)
	n := 0
	for {
		class := retention.Class("archive")
		if rng.Float64() < 0.3 {
			class = "ephemeral"
		}
		blocks := make([][]byte, 1+rng.Intn(3))
		for i := range blocks {
			b := make([]byte, device.DataBytes)
			for j := range b {
				b[j] = byte(rng.Uint64())
			}
			blocks[i] = b
		}
		if _, err := mgr.Ingest(fmt.Sprintf("rec-%04d", n), class, blocks); err != nil {
			// Device full: end of life.
			break
		}
		n++
		if n%25 == 0 {
			sample(n)
			// Periodic retention sweep.
			shredded, err := mgr.ShredExpired()
			if err != nil {
				return res, err
			}
			res.ShreddedRecords += shredded
		}
	}
	sample(n)
	res.RecordsUntilFull = n

	// End of life: wait out the archive period and check the paper's
	// decommissioning condition.
	st.Device().Clock().Advance(time.Hour)
	res.Decommissionable = mgr.Decommissionable()

	// Shredded records must remain evident.
	res.EvidenceSurvives = true
	for _, rec := range mgr.Records() {
		if !rec.Shredded {
			continue
		}
		rep, err := mgr.Verify(rec.ID)
		if err != nil || rep.OK {
			res.EvidenceSurvives = false
		}
	}
	return res, nil
}

// Table renders the ageing curve.
func (r E8Result) Table() string {
	var b strings.Builder
	b.WriteString("E8 — device lifetime under compliance ingest (§8)\n")
	b.WriteString("records  RO-ratio  free-blocks  fragmentation  virtual-time\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%7d %9.2f %12d %14.2f %13v\n",
			p.IngestedRecords, p.ReadOnlyRatio, p.FreeBlocks, p.Fragmentation, p.VirtualTime)
	}
	fmt.Fprintf(&b, "device filled after %d records; %d shredded by policy; decommissionable: %v; evidence survives: %v\n",
		r.RecordsUntilFull, r.ShreddedRecords, r.Decommissionable, r.EvidenceSurvives)
	b.WriteString("paper §8: the read/write area gradually shrinks until the device is read-only\n")
	return b.String()
}
