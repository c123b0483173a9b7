// Package worm implements the §2 baseline WORM technologies the paper
// positions SERO against, each as a block store with a freeze
// operation and a defined attacker model:
//
//   - SoftwareWORM: "the disk driver or the firmware of the disk can
//     be modified to block future writes ... The integrity offered by
//     this approach is relatively weak, as software modifications can
//     generally be undone."
//   - TapeWORM (LTO-3 style): "a small semiconductor memory in which a
//     read-only flag can be set ... The tape itself can still be
//     written using a tape drive that has been tampered with."
//   - OpticalWORM: physically write-once, good integrity — but the
//     whole medium is write-once from the start (no WMRM phase) and
//     silent overwrites are still not *detected*, merely resisted.
//   - FuseWORM (the IBM patent [56]): a blowable fuse makes an entire
//     platter immutable — strong but all-or-nothing.
//
// Each baseline implements Store, so the comparison experiment (E11)
// can run the same history-rewrite attack against every technology and
// against SERO, and tabulate flexibility and tamper evidence side by
// side.
package worm

import (
	"bytes"
	"errors"
	"fmt"
)

// BlockSize matches the SERO device block size.
const BlockSize = 512

// Store is the common contract of the baseline technologies.
type Store interface {
	// Name identifies the technology.
	Name() string
	// Write stores a block through the *honest* interface.
	Write(pba uint64, data []byte) error
	// Read fetches a block.
	Read(pba uint64) ([]byte, error)
	// Freeze makes the given block range read-only via the
	// technology's mechanism. Granularity restrictions surface as
	// errors.
	Freeze(start, n uint64) error
	// RawWrite models the §5 insider: physical access below the honest
	// interface (a tampered drive, a patched driver). It returns
	// ErrPhysicallyImpossible when the medium itself cannot be
	// altered.
	RawWrite(pba uint64, data []byte) error
	// Audit re-examines the store and reports whether any tampering
	// with frozen data is detectable after the fact.
	Audit() AuditResult
}

// AuditResult is the outcome of a post-attack audit.
type AuditResult struct {
	// TamperDetected is true when the technology can show that frozen
	// data was altered.
	TamperDetected bool
	// Notes explains the verdict.
	Notes string
}

// Baseline errors.
var (
	// ErrFrozen reports an honest write to frozen data.
	ErrFrozen = errors.New("worm: block is frozen")
	// ErrPhysicallyImpossible reports a raw write the medium cannot
	// perform (true write-once media).
	ErrPhysicallyImpossible = errors.New("worm: medium physically immutable")
	// ErrGranularity reports a freeze the technology cannot scope.
	ErrGranularity = errors.New("worm: freeze granularity not supported")
	// ErrWriteOnce reports a second write to a write-once block.
	ErrWriteOnce = errors.New("worm: block already written")
	// ErrOutOfRange reports a bad address.
	ErrOutOfRange = errors.New("worm: block out of range")
)

// blocks is the shared backing array helper.
type blocksArr struct {
	data [][]byte
}

func newBlocks(n int) blocksArr {
	return blocksArr{data: make([][]byte, n)}
}

func (b *blocksArr) check(pba uint64) error {
	if pba >= uint64(len(b.data)) {
		return fmt.Errorf("%w: %d", ErrOutOfRange, pba)
	}
	return nil
}

func (b *blocksArr) set(pba uint64, d []byte) {
	cp := make([]byte, BlockSize)
	copy(cp, d)
	b.data[pba] = cp
}

func (b *blocksArr) get(pba uint64) []byte {
	if b.data[pba] == nil {
		return make([]byte, BlockSize)
	}
	return append([]byte(nil), b.data[pba]...)
}

// SoftwareWORM blocks writes to frozen ranges in the driver. The
// attacker patches the driver: RawWrite succeeds and the audit has
// nothing physical to check.
type SoftwareWORM struct {
	blocksArr
	frozen map[uint64]bool
}

// NewSoftwareWORM builds a software-WORM store of n blocks.
func NewSoftwareWORM(n int) *SoftwareWORM {
	return &SoftwareWORM{blocksArr: newBlocks(n), frozen: make(map[uint64]bool)}
}

// Name implements Store.
func (s *SoftwareWORM) Name() string { return "software-worm" }

// Write implements Store.
func (s *SoftwareWORM) Write(pba uint64, data []byte) error {
	if err := s.check(pba); err != nil {
		return err
	}
	if s.frozen[pba] {
		return fmt.Errorf("%w: %d", ErrFrozen, pba)
	}
	s.set(pba, data)
	return nil
}

// Read implements Store.
func (s *SoftwareWORM) Read(pba uint64) ([]byte, error) {
	if err := s.check(pba); err != nil {
		return nil, err
	}
	return s.get(pba), nil
}

// Freeze implements Store: any range, any time — software is flexible.
func (s *SoftwareWORM) Freeze(start, n uint64) error {
	for pba := start; pba < start+n; pba++ {
		if err := s.check(pba); err != nil {
			return err
		}
		s.frozen[pba] = true
	}
	return nil
}

// RawWrite implements Store: the attacker simply patches the driver.
func (s *SoftwareWORM) RawWrite(pba uint64, data []byte) error {
	if err := s.check(pba); err != nil {
		return err
	}
	s.set(pba, data) // no physical barrier, no trace
	return nil
}

// Audit implements Store: nothing physical distinguishes tampered data.
func (s *SoftwareWORM) Audit() AuditResult {
	return AuditResult{
		TamperDetected: false,
		Notes:          "no physical record: a patched driver rewrites silently",
	}
}

// TapeWORM models an LTO-3 cartridge: the read-only flag lives in a
// semiconductor memory beside the medium; a compliant drive honours
// it, a tampered drive does not, and the tape itself records nothing
// about the violation.
type TapeWORM struct {
	blocksArr
	cartridgeRO bool
}

// NewTapeWORM builds a tape-WORM store of n blocks.
func NewTapeWORM(n int) *TapeWORM {
	return &TapeWORM{blocksArr: newBlocks(n)}
}

// Name implements Store.
func (t *TapeWORM) Name() string { return "lto3-tape" }

// Write implements Store.
func (t *TapeWORM) Write(pba uint64, data []byte) error {
	if err := t.check(pba); err != nil {
		return err
	}
	if t.cartridgeRO {
		return fmt.Errorf("%w: cartridge flag set", ErrFrozen)
	}
	t.set(pba, data)
	return nil
}

// Read implements Store.
func (t *TapeWORM) Read(pba uint64) ([]byte, error) {
	if err := t.check(pba); err != nil {
		return nil, err
	}
	return t.get(pba), nil
}

// Freeze implements Store: only the whole cartridge can be frozen
// ("integrity at the medium level only").
func (t *TapeWORM) Freeze(start, n uint64) error {
	if start != 0 || n != uint64(len(t.data)) {
		return fmt.Errorf("%w: LTO-3 freezes the whole cartridge", ErrGranularity)
	}
	t.cartridgeRO = true
	return nil
}

// RawWrite implements Store: a tampered drive ignores the flag.
func (t *TapeWORM) RawWrite(pba uint64, data []byte) error {
	if err := t.check(pba); err != nil {
		return err
	}
	t.set(pba, data)
	return nil
}

// Audit implements Store.
func (t *TapeWORM) Audit() AuditResult {
	return AuditResult{
		TamperDetected: false,
		Notes:          "the cartridge flag is intact but says nothing about the tape's content",
	}
}

// OpticalWORM is physically write-once from the first byte: no WMRM
// phase at all. Overwrites are physically impossible, which resists
// tampering — but an attacker with a fresh disc can still substitute
// media, and the disc itself carries no self-authenticating hash.
type OpticalWORM struct {
	blocksArr
	written map[uint64]bool
}

// NewOpticalWORM builds an optical store of n blocks.
func NewOpticalWORM(n int) *OpticalWORM {
	return &OpticalWORM{blocksArr: newBlocks(n), written: make(map[uint64]bool)}
}

// Name implements Store.
func (o *OpticalWORM) Name() string { return "optical-worm" }

// Write implements Store: each block once, ever.
func (o *OpticalWORM) Write(pba uint64, data []byte) error {
	if err := o.check(pba); err != nil {
		return err
	}
	if o.written[pba] {
		return fmt.Errorf("%w: %d", ErrWriteOnce, pba)
	}
	o.set(pba, data)
	o.written[pba] = true
	return nil
}

// Read implements Store.
func (o *OpticalWORM) Read(pba uint64) ([]byte, error) {
	if err := o.check(pba); err != nil {
		return nil, err
	}
	return o.get(pba), nil
}

// Freeze implements Store: a no-op — everything written is already
// final (and everything unwritten is the only flexibility left).
func (o *OpticalWORM) Freeze(start, n uint64) error { return nil }

// RawWrite implements Store: the dye cannot be un-burnt.
func (o *OpticalWORM) RawWrite(pba uint64, data []byte) error {
	if err := o.check(pba); err != nil {
		return err
	}
	if o.written[pba] {
		return ErrPhysicallyImpossible
	}
	// Unwritten blocks can be burnt by anyone — appending forged
	// history is possible, silently.
	o.set(pba, data)
	o.written[pba] = true
	return nil
}

// Audit implements Store: overwrites were impossible, but nothing
// distinguishes attacker-appended blocks from genuine ones.
func (o *OpticalWORM) Audit() AuditResult {
	return AuditResult{
		TamperDetected: false,
		Notes:          "overwrite physically resisted; appended forgeries undetectable",
	}
}

// FuseWORM models the IBM write-once disk patent: blowing a fuse makes
// the whole platter immutable at the head. "It would be more difficult
// to repair the fuse in the head than it is to tamper with an LTO-3
// tape drive" — but the platter itself remains writable with another
// head.
type FuseWORM struct {
	blocksArr
	fuseBlown bool
}

// NewFuseWORM builds a fuse-WORM disk of n blocks.
func NewFuseWORM(n int) *FuseWORM {
	return &FuseWORM{blocksArr: newBlocks(n)}
}

// Name implements Store.
func (f *FuseWORM) Name() string { return "fuse-disk" }

// Write implements Store.
func (f *FuseWORM) Write(pba uint64, data []byte) error {
	if err := f.check(pba); err != nil {
		return err
	}
	if f.fuseBlown {
		return fmt.Errorf("%w: fuse blown", ErrFrozen)
	}
	f.set(pba, data)
	return nil
}

// Read implements Store.
func (f *FuseWORM) Read(pba uint64) ([]byte, error) {
	if err := f.check(pba); err != nil {
		return nil, err
	}
	return f.get(pba), nil
}

// Freeze implements Store: whole platter or nothing.
func (f *FuseWORM) Freeze(start, n uint64) error {
	if start != 0 || n != uint64(len(f.data)) {
		return fmt.Errorf("%w: the fuse freezes the whole platter", ErrGranularity)
	}
	f.fuseBlown = true
	return nil
}

// RawWrite implements Store: swap the head assembly and the platter
// writes fine.
func (f *FuseWORM) RawWrite(pba uint64, data []byte) error {
	if err := f.check(pba); err != nil {
		return err
	}
	f.set(pba, data)
	return nil
}

// Audit implements Store.
func (f *FuseWORM) Audit() AuditResult {
	return AuditResult{
		TamperDetected: false,
		Notes:          "the blown fuse is intact; the platter's content is unauthenticated",
	}
}

// RewriteAttack runs the canonical §5 history rewrite against a
// baseline: write a record, freeze it, raw-rewrite it, audit. It
// returns what the attacker achieved and whether anyone can tell.
type RewriteAttackResult struct {
	// Technology names the attacked store (Store.Name).
	Technology string
	// FreezeScoped is true when the technology could freeze just the
	// record (flexibility).
	FreezeScoped bool
	// RewriteSucceeded is true when the raw write changed the stored
	// bytes.
	RewriteSucceeded bool
	// Detected is true when the post-attack audit shows tampering.
	Detected bool
	// Notes explains the outcome in one line.
	Notes string
}

// RunRewriteAttack executes the attack against s; totalBlocks is the
// store's size (needed for whole-medium freeze fallbacks).
func RunRewriteAttack(s Store, totalBlocks uint64) (RewriteAttackResult, error) {
	res := RewriteAttackResult{Technology: s.Name()}
	record := bytes.Repeat([]byte{0xAB}, BlockSize)
	if err := s.Write(3, record); err != nil {
		return res, err
	}
	// Try a scoped freeze first; fall back to whole-medium.
	if err := s.Freeze(3, 1); err == nil {
		res.FreezeScoped = true
	} else if err := s.Freeze(0, totalBlocks); err != nil {
		return res, err
	}

	forged := bytes.Repeat([]byte{0xEE}, BlockSize)
	if err := s.RawWrite(3, forged); err == nil {
		got, rerr := s.Read(3)
		if rerr != nil {
			return res, rerr
		}
		res.RewriteSucceeded = bytes.Equal(got, forged)
	}
	audit := s.Audit()
	res.Detected = audit.TamperDetected
	res.Notes = audit.Notes
	return res, nil
}
