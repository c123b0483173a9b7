package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sero/internal/device"
)

// Store is the SERO store: a device plus the policy that turns its six
// sector operations into a safe WMRM+WO service. The zero value is not
// usable; construct with NewStore.
//
// The store is safe for concurrent use and no longer serialises client
// traffic behind one mutex: block and line I/O goes straight to the
// device, which shards its locking by line region, so operations on
// distinct lines proceed in parallel. The heated-line registry lives
// in the device (the authoritative view, shared with other clients of
// the same device such as the file-system layer); the store's own
// lock only covers the allocator.
type Store struct {
	dev device.Dev

	// alMu guards the allocator and nothing else: no device I/O ever
	// runs under it, so allocation never serialises against in-flight
	// reads or writes. Methods that need both (WriteLine, Release,
	// Lifecycle) gather their device state outside the lock.
	alMu sync.Mutex
	al   *Allocator

	// epoch counts heat operations, for audit ordering.
	epoch atomic.Uint64
}

// Store-level errors.
var (
	// ErrLineHeated reports an attempt to release or rewrite a heated
	// line.
	ErrLineHeated = errors.New("core: line is heated (read-only)")
)

// NewStore wraps a device.
func NewStore(dev device.Dev) *Store {
	return &Store{
		dev: dev,
		al:  NewAllocator(dev.Blocks()),
	}
}

// Device exposes the underlying device (read-only use: clocks, stats).
func (s *Store) Device() device.Dev { return s.dev }

// Concurrency returns the device's configured fan-out width, which
// Audit and Recover use by default.
func (s *Store) Concurrency() int { return s.dev.Concurrency() }

// Alloc reserves n blocks with the given alignment and returns the
// first PBA.
func (s *Store) Alloc(n, align int) (uint64, error) {
	s.alMu.Lock()
	defer s.alMu.Unlock()
	return s.al.AllocAligned(n, align)
}

// AllocLine reserves a properly aligned line of 1<<logN blocks.
func (s *Store) AllocLine(logN uint8) (uint64, error) {
	n := 1 << logN
	s.alMu.Lock()
	defer s.alMu.Unlock()
	return s.al.AllocAligned(n, n)
}

// Release returns an unheated run to the free pool.
func (s *Store) Release(start uint64, n int) error {
	lines := s.dev.Lines()
	s.alMu.Lock()
	defer s.alMu.Unlock()
	for _, li := range lines {
		if start < li.End() && li.Start < start+uint64(n) {
			return fmt.Errorf("%w: [%d,%d)", ErrLineHeated, li.Start, li.End())
		}
	}
	s.al.Release(start, n)
	return nil
}

// Write writes one data block through the device's batched write path
// (a one-block run: one command, one settle).
func (s *Store) Write(pba uint64, data []byte) error {
	return s.dev.WriteBlocks(pba, [][]byte{data})
}

// Read reads one data block.
func (s *Store) Read(pba uint64) ([]byte, error) {
	return s.dev.MRS(pba)
}

// WriteLine allocates a line big enough for the given blocks (plus
// block 0 for the future hash), writes them, and returns the line
// start. blocks[i] lands at start+1+i; any slack at the end of the
// 2^N line is zero-padded so the line is heatable as a unit. The
// member blocks go to the medium as one batched line-granular command
// (allocation happens first, outside any I/O, under the allocator's
// own lock). Use Heat to freeze the line later.
func (s *Store) WriteLine(blocks [][]byte) (start uint64, logN uint8, err error) {
	if len(blocks) == 0 {
		return 0, 0, errors.New("core: WriteLine with no blocks")
	}
	logN = device.LineExponent(len(blocks) + 1)
	start, err = s.AllocLine(logN)
	if err != nil {
		return 0, 0, err
	}
	if werr := s.dev.WriteLineBatch(start, logN, blocks); werr != nil {
		return 0, 0, fmt.Errorf("core: writing line at %d: %w", start, werr)
	}
	return start, logN, nil
}

// Heat freezes the line starting at start: after this the line is
// read-only and tamper-evident.
func (s *Store) Heat(start uint64, logN uint8) (device.LineInfo, error) {
	li, err := s.dev.HeatLine(start, logN)
	if err != nil {
		return device.LineInfo{}, err
	}
	s.epoch.Add(1)
	return li, nil
}

// Verify checks one heated line.
func (s *Store) Verify(start uint64) (device.VerifyReport, error) {
	return s.dev.VerifyLine(start)
}

// Lines returns the store's view of heated lines.
func (s *Store) Lines() []device.LineInfo {
	return s.dev.Lines()
}

// Recover rebuilds the store's state from the medium (device Scan),
// reserving recovered lines in the allocator. It returns the audit
// report of the scan. The scan itself fans out over the device's
// configured Concurrency.
func (s *Store) Recover() (RecoveryReport, error) {
	recovered, unparseable, err := s.dev.Scan()
	if err != nil {
		return RecoveryReport{}, err
	}
	s.alMu.Lock()
	defer s.alMu.Unlock()
	s.al = NewAllocator(s.dev.Blocks())
	rep := RecoveryReport{Unparseable: unparseable}
	for _, li := range recovered {
		if rerr := s.al.Reserve(li.Start, int(li.Blocks())); rerr != nil {
			rep.Conflicts = append(rep.Conflicts, li.Start)
			continue
		}
		rep.Lines = append(rep.Lines, li)
	}
	return rep, nil
}

// RecoveryReport summarises a Recover pass.
type RecoveryReport struct {
	// Lines are the heated lines recovered and re-reserved.
	Lines []device.LineInfo
	// Unparseable lists blocks with electrical data that is not a
	// valid heat record — raw tampering or shredded blocks.
	Unparseable []uint64
	// Conflicts lists recovered lines that overlap (should be
	// impossible on an honestly operated device).
	Conflicts []uint64
}

// Clean reports whether recovery found no anomalies.
func (r RecoveryReport) Clean() bool {
	return len(r.Unparseable) == 0 && len(r.Conflicts) == 0
}

// LifecycleStats captures the WMRM→RO ageing of the device (§8: "over
// the lifetime of the device, the read/write area gradually shrinks,
// and the read-only area grows").
type LifecycleStats struct {
	// TotalBlocks is the device capacity in blocks.
	TotalBlocks int
	// FreeBlocks counts allocatable blocks remaining.
	FreeBlocks    int
	HeatedBlocks  int     // blocks inside heated lines
	ReadOnlyRatio float64 // heated / total
	Fragmentation float64 // allocator fragmentation index
	// LargestFreeRun is the longest contiguous free extent in blocks.
	LargestFreeRun int
	// HeatEpoch counts heat operations performed so far.
	HeatEpoch uint64
	// VirtualTime is the device clock at the snapshot.
	VirtualTime time.Duration
}

// Lifecycle returns current lifecycle statistics. Heated lines are
// taken from the device registry, which is authoritative even when
// lines were heated through another client of the same device (e.g.
// the file system layer).
func (s *Store) Lifecycle() LifecycleStats {
	lines := s.dev.Lines()
	s.alMu.Lock()
	defer s.alMu.Unlock()
	heated := 0
	for _, li := range lines {
		heated += int(li.Blocks())
	}
	return LifecycleStats{
		TotalBlocks:    s.al.Total(),
		FreeBlocks:     s.al.Free(),
		HeatedBlocks:   heated,
		ReadOnlyRatio:  float64(heated) / float64(s.al.Total()),
		Fragmentation:  s.al.FragmentationIndex(),
		LargestFreeRun: s.al.LargestFree(),
		HeatEpoch:      s.epoch.Load(),
		VirtualTime:    s.dev.Clock().Now(),
	}
}

// Decommissionable reports whether the device has aged into a pure
// read-only device (no free WMRM space left worth using): §8 "The
// medium can safely be decommissioned by the time all data has
// expired."
func (s *Store) Decommissionable() bool {
	st := s.Lifecycle()
	return st.FreeBlocks == 0 || st.ReadOnlyRatio > 0.99
}
