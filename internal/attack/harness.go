package attack

import (
	"sero/internal/device"
	"sero/internal/lfs"
)

// QuietConfig configures NewQuietHarness: a deterministic (noiseless)
// device with a freshly formatted FS, sized for attack tests. The zero
// value is usable — every field has a default.
type QuietConfig struct {
	// Blocks is the device size in blocks (default 2048).
	Blocks int
	// SegmentBlocks is the LFS segment size (default 32; the
	// checkpoint region is sized to match).
	SegmentBlocks int
	// Concurrency is the FS worker-plane fan-out width (default 1).
	Concurrency int
	// CleanWatermark arms the FS background cleaner (default 0: off).
	CleanWatermark int
	// AuditEvery arms the FS background auditor cadence (default 0:
	// off; campaigns and tests can still drive AuditStep inline).
	AuditEvery int
	// Seed seeds the harness RNG that generates victim and bystander
	// content (default 42).
	Seed uint64
}

// NewQuietHarness builds the shared prepared-FS victim environment
// the attack tests and concurrent campaigns run against: a noiseless
// medium (so every outcome is deterministic), a heat-aware FS, one
// heated victim file and unheated bystanders — the §5 scenario in a
// box.
func NewQuietHarness(cfg QuietConfig) (*Harness, error) {
	if cfg.Blocks <= 0 {
		cfg.Blocks = 2048
	}
	if cfg.SegmentBlocks <= 0 {
		cfg.SegmentBlocks = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	fs, err := lfs.New(device.New(device.QuietParams(cfg.Blocks)), lfs.Params{
		SegmentBlocks:    cfg.SegmentBlocks,
		CheckpointBlocks: cfg.SegmentBlocks,
		HeatAware:        true,
		ReserveSegments:  2,
		Concurrency:      cfg.Concurrency,
		CleanWatermark:   cfg.CleanWatermark,
		AuditEvery:       cfg.AuditEvery,
	})
	if err != nil {
		return nil, err
	}
	return NewHarness(fs, cfg.Seed)
}
