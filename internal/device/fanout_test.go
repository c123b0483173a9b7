package device

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sero/internal/trace"
)

// The fan-out engines' observable contract, pinned engine by engine:
// one join span per pass (name, track, start, duration, planes used),
// a shared-clock advance equal to the slowest worker plane's elapsed
// time, worker spans on tracks offset+1..offset+planes inside the
// pass's window, and results in input order.

const fanTrackOffset = 64

// fanDevice builds a quiet device with heated lines at every
// 64-block boundary whose index is not 2 mod 3 (8-block lines), and
// 8 data blocks at 64i+16 in every 64-block slab.
func fanDevice(t *testing.T, blocks int) *Device {
	t.Helper()
	p := QuietParams(blocks)
	p.TrackOffset = fanTrackOffset
	d := New(p)
	for s := 0; s*64 < blocks; s++ {
		base := uint64(s * 64)
		if s%3 != 2 {
			if err := d.WriteLineBatch(base, 3, [][]byte{pattern(byte(s)), pattern(byte(s + 1))}); err != nil {
				t.Fatal(err)
			}
			if _, err := d.HeatLine(base, 3); err != nil {
				t.Fatal(err)
			}
		}
		if base+24 <= uint64(blocks) {
			run := make([][]byte, 8)
			for i := range run {
				run[i] = pattern(byte(s*8 + i))
			}
			if err := d.WriteBlocks(base+16, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// fanHeatedStarts lists fanDevice's heated line starts.
func fanHeatedStarts(blocks int) []uint64 {
	var out []uint64
	for s := 0; s*64 < blocks; s++ {
		if s%3 != 2 {
			out = append(out, uint64(s*64))
		}
	}
	return out
}

// stridedShares is the strided partition: worker w takes items w,
// w+k, w+2k, … with k clamped to the item count.
func stridedShares(n, k int) [][]int {
	if k > n {
		k = n
	}
	shares := make([][]int, k)
	for i := 0; i < n; i++ {
		shares[i%k] = append(shares[i%k], i)
	}
	return shares
}

// contiguousShares is the contiguous partition: worker w takes one
// ceil(n/k)-long index range; trailing empty ranges get no plane.
func contiguousShares(n, k int) [][]int {
	if k > n {
		k = n
	}
	per := (n + k - 1) / k
	var shares [][]int
	for lo := 0; lo < n; lo += per {
		var share []int
		for i := lo; i < lo+per && i < n; i++ {
			share = append(share, i)
		}
		shares = append(shares, share)
	}
	return shares
}

// fanEngine drives one fan-out engine over a subset of its items.
type fanEngine struct {
	span   string
	blocks int
	items  int
	shares func(n, k int) [][]int
	// run runs the engine at width j over the items idx on d and
	// checks the per-item results come back in input order.
	run func(t *testing.T, d *Device, idx []int, j int)
	// elapsed, when set, replaces the width-1 rerun as the oracle for
	// one worker's plane time (Scan cannot be run over a subset).
	elapsed func(d *Device, share []int) time.Duration
}

func verifyEngine() fanEngine {
	const blocks = 1024
	starts := fanHeatedStarts(blocks)
	// Scramble the order and add a start that holds no line.
	var in []uint64
	for i := len(starts) - 1; i >= 0; i -= 2 {
		in = append(in, starts[i])
	}
	for i := len(starts) - 2; i >= 0; i -= 2 {
		in = append(in, starts[i])
	}
	in = append(in[:3], append([]uint64{128 + 16}, in[3:]...)...)
	return fanEngine{
		span: "verify-fanout", blocks: blocks, items: len(in), shares: stridedShares,
		run: func(t *testing.T, d *Device, idx []int, j int) {
			sub := make([]uint64, len(idx))
			for i, x := range idx {
				sub[i] = in[x]
			}
			out := d.VerifyLines(sub, j)
			for i, oc := range out {
				if sub[i]%64 != 0 {
					if !errors.Is(oc.Err, ErrNotHeated) {
						t.Fatalf("verify %d: err %v, want ErrNotHeated", sub[i], oc.Err)
					}
					continue
				}
				if oc.Err != nil || !oc.Report.OK || oc.Report.Line.Start != sub[i] {
					t.Fatalf("verify outcome %d: start %d ok=%v err=%v, want line %d",
						i, oc.Report.Line.Start, oc.Report.OK, oc.Err, sub[i])
				}
			}
		},
	}
}

func scanEngine(blocks int) fanEngine {
	const chunk = 16
	chunks := (blocks + chunk - 1) / chunk
	return fanEngine{
		span: "scan-fanout", blocks: blocks, items: chunks, shares: stridedShares,
		run: func(t *testing.T, d *Device, _ []int, j int) {
			d.SetConcurrency(j)
			rec, unp, err := d.Scan()
			if err != nil || len(unp) != 0 {
				t.Fatalf("scan: err %v, unparseable %v", err, unp)
			}
			want := fanHeatedStarts(blocks)
			if len(rec) != len(want) {
				t.Fatalf("scan recovered %d lines, want %d", len(rec), len(want))
			}
			for i, li := range rec {
				if li.Start != want[i] || li.LogN != 3 {
					t.Fatalf("scan line %d: %+v, want start %d", i, li, want[i])
				}
			}
		},
		elapsed: func(d *Device, share []int) time.Duration {
			pl := d.newPlane(1, 0)
			res := &scanResult{}
			for _, c := range share {
				hi := uint64(c+1) * chunk
				if hi > uint64(blocks) {
					hi = uint64(blocks)
				}
				d.scanRange(pl, uint64(c)*chunk, hi, res)
			}
			return pl.clock.Now()
		},
	}
}

func moveEngine() fanEngine {
	const blocks = 1024
	// Group s moves slab s's first three data blocks to 64s+40..42;
	// every third group also moves one block to a non-consecutive
	// destination, splitting its write into two runs.
	var groups [][]BlockMove
	for s := 0; s < blocks/64; s++ {
		base := uint64(s * 64)
		g := []BlockMove{{base + 16, base + 40}, {base + 17, base + 41}, {base + 18, base + 42}}
		if s%3 == 0 {
			g = append(g, BlockMove{base + 19, base + 50})
		}
		groups = append(groups, g)
	}
	groups = append(groups, []BlockMove{{17, 3}}) // inside a heated line
	return fanEngine{
		span: "move-fanout", blocks: blocks, items: len(groups), shares: stridedShares,
		run: func(t *testing.T, d *Device, idx []int, j int) {
			sub := make([][]BlockMove, len(idx))
			for i, x := range idx {
				sub[i] = groups[x]
			}
			out := d.MoveGroups(sub, j)
			for i, r := range out {
				if sub[i][0].Dst == 3 {
					if r.Err == nil || r.Completed != 0 {
						t.Fatalf("move into a heated line: %+v", r)
					}
					continue
				}
				if r.Err != nil || r.Completed != len(sub[i]) {
					t.Fatalf("move group %d: %+v", i, r)
				}
			}
		},
	}
}

func writeEngine() fanEngine {
	const blocks = 1024
	var runs []WriteRun
	for s := 0; s < blocks/64; s++ {
		run := make([][]byte, s%3+1)
		for i := range run {
			run[i] = pattern(byte(100 + s + i))
		}
		runs = append(runs, WriteRun{Start: uint64(s*64 + 32), Blocks: run})
	}
	refused := WriteRun{Start: 63, Blocks: [][]byte{pattern(1), pattern(2)}} // runs into line 64
	runs = append(runs[:5], append([]WriteRun{refused}, runs[5:]...)...)
	return fanEngine{
		span: "write-fanout", blocks: blocks, items: len(runs), shares: stridedShares,
		run: func(t *testing.T, d *Device, idx []int, j int) {
			sub := make([]WriteRun, len(idx))
			for i, x := range idx {
				sub[i] = runs[x]
			}
			errs := d.WriteRunsFannedTraced(nil, sub, j)
			for i, err := range errs {
				if (sub[i].Start == 63) != (err != nil) {
					t.Fatalf("write run %d at %d: err %v", i, sub[i].Start, err)
				}
			}
		},
	}
}

func readEngine() fanEngine {
	const blocks = 1024
	// Slab data blocks in a scrambled order, plus one out-of-range
	// address.
	var pbas []uint64
	for s := 0; s < blocks/64; s++ {
		slab := uint64((s * 7) % (blocks / 64))
		pbas = append(pbas, slab*64+16+uint64(s%8), slab*64+16+uint64((s+3)%8))
	}
	pbas = append(pbas[:9], append([]uint64{blocks + 5}, pbas[9:]...)...)
	return fanEngine{
		span: "read-fanout", blocks: blocks, items: len(pbas), shares: contiguousShares,
		run: func(t *testing.T, d *Device, idx []int, j int) {
			sub := make([]uint64, len(idx))
			for i, x := range idx {
				sub[i] = pbas[x]
			}
			bufs, errs := d.ReadBlocksFanned(sub, j)
			for i, pba := range sub {
				if pba >= blocks {
					if !errors.Is(errs[i], ErrOutOfRange) || bufs[i] != nil {
						t.Fatalf("read %d: err %v", pba, errs[i])
					}
					continue
				}
				s, off := pba/64, pba%64-16
				if errs[i] != nil || !bytes.Equal(bufs[i], pattern(byte(s*8+off))) {
					t.Fatalf("read slot %d (block %d): err %v or wrong payload", i, pba, errs[i])
				}
			}
		},
	}
}

func TestFanOutJoinSpansAndClock(t *testing.T) {
	engines := []fanEngine{verifyEngine(), scanEngine(1024), moveEngine(), writeEngine(), readEngine(),
		// Three 16-block chunks: at j=4 only three planes have work.
		scanEngine(40)}
	for _, e := range engines {
		all := make([]int, e.items)
		for i := range all {
			all[i] = i
		}
		for _, j := range []int{1, 2, 4} {
			d := fanDevice(t, e.blocks)
			tr := trace.New(0)
			d.SetTracer(tr)
			before := int64(d.Clock().Now())
			e.run(t, d, all, j)
			advance := int64(d.Clock().Now()) - before

			shares := e.shares(e.items, j)
			var slowest time.Duration
			for _, share := range shares {
				od := fanDevice(t, e.blocks)
				var el time.Duration
				if e.elapsed != nil {
					el = e.elapsed(od, share)
				} else {
					t0 := od.Clock().Now()
					e.run(t, od, share, 1)
					el = od.Clock().Now() - t0
				}
				if el > slowest {
					slowest = el
				}
			}
			if advance != int64(slowest) {
				t.Errorf("%s j=%d: clock advanced %d, slowest plane %d", e.span, j, advance, slowest)
			}

			var joins []trace.Span
			for _, s := range tr.Spans() {
				if s.Name == e.span {
					joins = append(joins, s)
					continue
				}
				if s.Track <= fanTrackOffset || s.Track > fanTrackOffset+int32(len(shares)) {
					t.Errorf("%s j=%d: worker span %s on track %d, want %d..%d",
						e.span, j, s.Name, s.Track, fanTrackOffset+1, fanTrackOffset+len(shares))
				}
				if s.Start < before || s.Start+s.Dur > before+advance {
					t.Errorf("%s j=%d: worker span %s [%d,+%d] outside the pass [%d,+%d]",
						e.span, j, s.Name, s.Start, s.Dur, before, advance)
				}
			}
			if len(joins) != 1 {
				t.Fatalf("%s j=%d: %d join spans, want 1", e.span, j, len(joins))
			}
			want := trace.Span{Name: e.span, Cat: "device", Track: fanTrackOffset, Session: -1,
				Start: before, Dur: advance, V1: int64(len(shares))}
			if joins[0] != want {
				t.Errorf("%s j=%d: join span %+v, want %+v", e.span, j, joins[0], want)
			}
		}
	}
}
