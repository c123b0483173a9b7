package device

import (
	"time"

	"sero/internal/sim"
	"sero/internal/trace"
)

// Dev is the block-device contract the upper layers (core, lfs, serve)
// program against. *Device implements it directly; internal/array's
// Array implements it over N member devices with cross-device parity.
// The contract is exactly the surface the single-device code already
// used — introducing the interface changes no behaviour, it only
// names the boundary so a striped composite can slot in underneath
// without the upper layers knowing.
//
// Address space: all PBAs are in the implementation's own block space
// (a composite translates to member-local addresses internally, and
// translates member-local addresses back in everything it returns:
// LineInfo starts, VerifyReport read errors, observer callbacks).
//
// Virtual-time contract: Clock() is the implementation's shared
// foreground clock. A composite keeps one clock per member and raises
// the shared clock to the slowest member after each operation
// (sim.Clock.AdvanceTo), so fanned work across members overlaps
// exactly like worker planes overlap inside one device.
//
// One method per command: the block read and the two batched writes
// take the caller's *trace.Task and charge it the shared-clock advance
// the command caused (a composite charges its own raise, not its
// members' sum), so a traced operation can split that time from
// queueing. A caller with no task (mount, tools, tests) passes nil.
type Dev interface {
	// Geometry and shared state.
	Blocks() int
	Clock() *sim.Clock    // the shared foreground clock
	Concurrency() int     // default fan-out width
	SetConcurrency(k int) // sets the default fan-out width
	Stats() OpStats       // cumulative operation counters

	// Observability.
	Tracer() *trace.Tracer
	SetTracer(t *trace.Tracer)         // installs (nil removes) the span sink
	SetWriteObserver(fn WriteObserver) // installs (nil removes) the write hook
	SetReadObserver(fn ReadObserver)   // installs (nil removes) the read hook

	// Magnetic block I/O.
	MRSTraced(task *trace.Task, pba uint64) ([]byte, error)                       // one block read
	WriteBlocksTraced(task *trace.Task, start uint64, blocks [][]byte) error      // one batched contiguous write
	WriteRunsFannedTraced(task *trace.Task, runs []WriteRun, workers int) []error // independent runs on worker planes
	ReadBlocksFanned(pbas []uint64, workers int) ([][]byte, []error)              // scattered reads on worker planes
	MoveGroups(groups [][]BlockMove, workers int) []MoveResult                    // cleaner relocation groups

	// Lines: batched write, heat, verify, registry, recovery scan.
	WriteLineBatch(start uint64, logN uint8, blocks [][]byte) error
	HeatLine(start uint64, logN uint8) (LineInfo, error)                  // freezes a written line
	VerifyLine(start uint64) (VerifyReport, error)                        // re-checks a heated line
	VerifyLineOffClock(start uint64) (VerifyReport, time.Duration, error) // VerifyLine on a private plane
	VerifyLines(starts []uint64, workers int) []VerifyOutcome             // fanned VerifyLine
	Lines() []LineInfo                                                    // the heated-line registry
	Scan() (recovered []LineInfo, unparseable []uint64, err error)        // rebuilds the registry from the medium

	// Destruction and persistence.
	ShredLine(start uint64) (ShredReport, error)
	SaveImage() []byte // the whole medium as a loadable image
}

// Compile-time check: the raw device satisfies the contract.
var _ Dev = (*Device)(nil)
