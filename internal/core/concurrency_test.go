package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sero/internal/device"
)

// Concurrency stress tests: the sharded store must survive mixed
// Write/WriteLine/Heat/Verify/Audit traffic from many goroutines under
// the race detector, and parallel audits must produce reports
// identical to serial ones.

func stressStore(t testing.TB, blocks int, concurrency int) *Store {
	t.Helper()
	p := device.QuietParams(blocks)
	p.Concurrency = concurrency
	return NewStore(device.New(p))
}

func stressBlock(tag byte, i int) []byte {
	b := make([]byte, device.DataBytes)
	copy(b, fmt.Sprintf("stress %c %d", tag, i))
	return b
}

// TestStressParallelTraffic hammers one store from ~16 goroutines:
// raw block writers and readers, line writers that heat their lines,
// verifiers chasing the heated lines, and full audits — all at once.
func TestStressParallelTraffic(t *testing.T) {
	st := stressStore(t, 4096, 4)

	// Seed a few heated lines so verifiers and auditors have work from
	// the first moment.
	var seeded []uint64
	for i := 0; i < 4; i++ {
		start, logN, err := st.WriteLine([][]byte{stressBlock('s', i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Heat(start, logN); err != nil {
			t.Fatal(err)
		}
		seeded = append(seeded, start)
	}

	// Raw-block region, far from line allocations: reserve it so
	// WriteLine never lands there.
	rawStart, err := st.Alloc(256, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// 4 raw writers + 4 readers over the reserved region.
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pba := rawStart + uint64((g*25+i)%256)
				if err := st.Write(pba, stressBlock('w', int(pba))); err != nil {
					fail(err)
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pba := rawStart + uint64((g*25+i)%256)
				data, err := st.Read(pba)
				if err != nil {
					continue // not yet written by a writer: uncorrectable is fine
				}
				if !bytes.Contains(data, []byte("stress")) && data[0] != 0 {
					fail(fmt.Errorf("block %d holds garbage", pba))
					return
				}
			}
		}(g)
	}

	// 4 line writers that heat and then verify their own lines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				start, logN, err := st.WriteLine([][]byte{
					stressBlock('l', g*100+i), stressBlock('m', g*100+i),
				})
				if err != nil {
					fail(err)
					return
				}
				if _, err := st.Heat(start, logN); err != nil {
					fail(err)
					return
				}
				rep, err := st.Verify(start)
				if err != nil {
					fail(err)
					return
				}
				if !rep.OK {
					fail(fmt.Errorf("fresh line %d tampered", start))
					return
				}
			}
		}(g)
	}

	// 2 verifiers chasing the seeded lines.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, start := range seeded {
					rep, err := st.Verify(start)
					if err != nil {
						fail(err)
						return
					}
					if !rep.OK {
						fail(fmt.Errorf("seeded line %d tampered", start))
						return
					}
				}
			}
		}()
	}

	// 2 full auditors running concurrently with everything above.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				rep := st.Audit()
				if rep.TamperedLines != 0 {
					fail(fmt.Errorf("audit saw %d tampered lines", rep.TamperedLines))
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The dust settled: a final serial audit must be clean and cover
	// every line ever heated.
	rep := st.AuditParallel(1)
	if !rep.Clean() {
		t.Fatalf("final audit not clean:\n%s", rep.Summary())
	}
	if len(rep.Reports) != 4+4*5 {
		t.Fatalf("final audit covered %d lines, want %d", len(rep.Reports), 24)
	}
}

// TestAuditParallelMatchesSerial locks in the determinism contract:
// the audit report must be byte-identical for any worker count.
func TestAuditParallelMatchesSerial(t *testing.T) {
	st := stressStore(t, 1024, 1)
	for i := 0; i < 24; i++ {
		start, logN, err := st.WriteLine([][]byte{stressBlock('a', i), stressBlock('b', i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Heat(start, logN); err != nil {
			t.Fatal(err)
		}
	}
	// Tamper with one member block so the comparison covers tampered
	// reports too: rewrite it with a perfectly consistent forged frame
	// (valid CRC and parity), which only the line hash can catch.
	victim := st.Lines()[7]
	forged := make([]byte, device.DataBytes)
	copy(forged, "these are not the records you wrote")
	if err := st.Device().(*device.Device).ForgeBlock(victim.Start+1, forged); err != nil {
		t.Fatal(err)
	}

	serial := st.AuditParallel(1)
	for _, workers := range []int{2, 4, 8} {
		par := st.AuditParallel(workers)
		if !reflect.DeepEqual(serial.Reports, par.Reports) {
			t.Fatalf("workers=%d: reports differ from serial", workers)
		}
		if serial.TamperedLines != par.TamperedLines || len(serial.Errors) != len(par.Errors) {
			t.Fatalf("workers=%d: summary differs from serial", workers)
		}
	}
	if serial.TamperedLines != 1 {
		t.Fatalf("expected exactly the tampered victim, got %d", serial.TamperedLines)
	}
}

// TestParallelAuditVirtualTime locks in the documented virtual-clock
// semantics: a K-worker audit advances the device clock by roughly the
// slowest worker's share, i.e. much less than the serial sum.
func TestParallelAuditVirtualTime(t *testing.T) {
	st := stressStore(t, 2048, 1)
	for i := 0; i < 32; i++ {
		start, logN, err := st.WriteLine([][]byte{stressBlock('v', i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Heat(start, logN); err != nil {
			t.Fatal(err)
		}
	}
	clock := st.Device().Clock()

	t0 := clock.Now()
	st.AuditParallel(1)
	serial := clock.Now() - t0

	t1 := clock.Now()
	st.AuditParallel(8)
	parallel := clock.Now() - t1

	if parallel <= 0 || serial <= 0 {
		t.Fatalf("audits consumed no virtual time (serial %v, parallel %v)", serial, parallel)
	}
	// 32 uniform lines over 8 workers: each worker verifies ~4 lines,
	// so the parallel pass should cost well under half the serial one.
	if parallel*2 >= serial {
		t.Fatalf("parallel audit %v not faster than half of serial %v", parallel, serial)
	}
}
