package experiments

import (
	"fmt"
	"strings"

	"sero/internal/device"
	"sero/internal/worm"
)

// E11 — baseline comparison (§2 "WORM technologies"). The same
// history-rewrite attack runs against every baseline WORM technology
// and against SERO; the table shows what each can scope (flexibility)
// and what each can prove afterwards (tamper evidence).

// seroStore adapts the SERO device to the worm.Store contract so the
// identical attack driver exercises it.
type seroStore struct {
	dev *device.Device
	// line is the heated line covering the frozen record, once frozen.
	line   *device.LineInfo
	frozen uint64
}

func newSeroStore(blocks int) *seroStore {
	return &seroStore{dev: quietDevice(blocks)}
}

// Name implements worm.Store.
func (s *seroStore) Name() string { return "sero" }

// Write implements worm.Store.
func (s *seroStore) Write(pba uint64, data []byte) error {
	return s.dev.MWS(pba, data)
}

// Read implements worm.Store. Heated hash blocks are not magnetically
// readable; the attack driver only reads data blocks.
func (s *seroStore) Read(pba uint64) ([]byte, error) {
	return s.dev.MRS(pba)
}

// Freeze implements worm.Store: heat the smallest aligned line whose
// data region covers [start, start+n). For the attack's single-block
// freeze the line is two blocks: hash at start−1, data at start.
func (s *seroStore) Freeze(start, n uint64) error {
	if n != 1 || start%2 != 1 {
		return fmt.Errorf("seroStore: demo freeze supports one odd-addressed block, got [%d,%d)", start, n)
	}
	li, err := s.dev.HeatLine(start-1, 1)
	if err != nil {
		return err
	}
	s.line = &li
	s.frozen = start
	return nil
}

// RawWrite implements worm.Store: the §5 insider forges a fully valid
// frame on the raw medium.
func (s *seroStore) RawWrite(pba uint64, data []byte) error {
	return s.dev.ForgeBlock(pba, data)
}

// Audit implements worm.Store.
func (s *seroStore) Audit() worm.AuditResult {
	if s.line == nil {
		return worm.AuditResult{Notes: "nothing frozen"}
	}
	rep, err := s.dev.VerifyLine(s.line.Start)
	if err != nil {
		return worm.AuditResult{TamperDetected: true, Notes: "verify error: " + err.Error()}
	}
	if rep.Tampered() {
		return worm.AuditResult{
			TamperDetected: true,
			Notes:          "heated hash no longer matches the stored data",
		}
	}
	return worm.AuditResult{Notes: "line verifies clean"}
}

// E11Result is the baseline comparison.
type E11Result struct {
	// Results holds one rewrite attack per storage technology.
	Results []worm.RewriteAttackResult
}

// RunE11 attacks every technology.
func RunE11() (E11Result, error) {
	var res E11Result
	const blocks = 8
	stores := []worm.Store{
		worm.NewSoftwareWORM(blocks),
		worm.NewTapeWORM(blocks),
		worm.NewOpticalWORM(blocks),
		worm.NewFuseWORM(blocks),
		newSeroStore(blocks),
	}
	for _, s := range stores {
		r, err := worm.RunRewriteAttack(s, blocks)
		if err != nil {
			return res, fmt.Errorf("%s: %w", s.Name(), err)
		}
		res.Results = append(res.Results, r)
	}
	return res, nil
}

// Table renders the comparison.
func (r E11Result) Table() string {
	var b strings.Builder
	b.WriteString("E11 — WORM technology comparison under the §5 history-rewrite attack\n")
	b.WriteString("technology     scoped-freeze  rewrite-succeeded  detected  notes\n")
	for _, res := range r.Results {
		note := res.Notes
		if len(note) > 58 {
			note = note[:55] + "..."
		}
		fmt.Fprintf(&b, "%-14s %13v %18v %9v  %s\n",
			res.Technology, res.FreezeScoped, res.RewriteSucceeded, res.Detected, note)
	}
	b.WriteString("paper §2: SERO combines WMRM flexibility, per-line freezing and tamper evidence\n")
	return b.String()
}
