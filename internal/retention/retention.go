// Package retention implements the §8 "Deletion" policy layer: data
// subject to compliance regulation is segregated by expiry class; each
// class's records are heated into their own lines; when a class
// expires, its lines are physically shredded (or, when every class on
// the device has expired, the whole medium is decommissioned). The
// paper: "We would advocate data to be segregated by expiry date, thus
// making it possible to take a device physically out of service."
package retention

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sero/internal/core"
	"sero/internal/device"
)

// Class identifies a retention class (e.g. "7-year-financial").
type Class string

// Policy fixes a class's retention period in virtual time.
type Policy struct {
	Class  Class         // the retention class the policy governs
	Period time.Duration // how long a record of the class must be kept
}

// Record is one retained object.
type Record struct {
	// ID names the record.
	ID string
	// Class is the record's retention class.
	Class Class
	// Line is the heated line holding the record.
	Line device.LineInfo
	// StoredAt is the virtual ingest time.
	StoredAt time.Duration
	// Shredded marks a destroyed record.
	Shredded bool
}

// ExpiresAt returns the record's expiry instant under p.
func (r Record) ExpiresAt(p Policy) time.Duration { return r.StoredAt + p.Period }

// Manager enforces retention on a SERO store.
type Manager struct {
	st       *core.Store
	policies map[Class]Policy
	records  map[string]*Record
}

// Manager errors.
var (
	// ErrUnknownClass reports ingest into an undeclared class.
	ErrUnknownClass = errors.New("retention: unknown class")
	// ErrDuplicateID reports an ingest with a reused record ID.
	ErrDuplicateID = errors.New("retention: duplicate record id")
	// ErrNotExpired reports a shred attempt before the retention
	// period has elapsed — the manager never destroys live records.
	ErrNotExpired = errors.New("retention: record not expired")
)

// NewManager builds a manager with the given class policies.
func NewManager(st *core.Store, policies ...Policy) *Manager {
	m := &Manager{
		st:       st,
		policies: make(map[Class]Policy),
		records:  make(map[string]*Record),
	}
	for _, p := range policies {
		m.policies[p.Class] = p
	}
	return m
}

// now returns the store's virtual time.
func (m *Manager) now() time.Duration { return m.st.Device().Clock().Now() }

// Ingest stores the blocks as one heated line in the record's class.
// The record is immediately tamper-evident.
func (m *Manager) Ingest(id string, class Class, blocks [][]byte) (*Record, error) {
	if _, ok := m.policies[class]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	if _, ok := m.records[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	start, logN, err := m.st.WriteLine(blocks)
	if err != nil {
		return nil, err
	}
	li, err := m.st.Heat(start, logN)
	if err != nil {
		return nil, err
	}
	rec := &Record{
		ID:       id,
		Class:    class,
		Line:     li,
		StoredAt: m.now(),
	}
	m.records[id] = rec
	return rec, nil
}

// Verify checks one record's line.
func (m *Manager) Verify(id string) (device.VerifyReport, error) {
	rec, ok := m.records[id]
	if !ok {
		return device.VerifyReport{}, fmt.Errorf("retention: no record %s", id)
	}
	return m.st.Verify(rec.Line.Start)
}

// Expired lists records whose retention period has elapsed.
func (m *Manager) Expired() []*Record {
	var out []*Record
	now := m.now()
	for _, rec := range m.records {
		if rec.Shredded {
			continue
		}
		if now >= rec.ExpiresAt(m.policies[rec.Class]) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Shred destroys one expired record. Shredding an unexpired record is
// refused — the §8 caveat about dishonest insiders means destruction
// must be mechanically tied to the policy clock, not to a request.
func (m *Manager) Shred(id string) (device.ShredReport, error) {
	rec, ok := m.records[id]
	if !ok {
		return device.ShredReport{}, fmt.Errorf("retention: no record %s", id)
	}
	if rec.Shredded {
		return device.ShredReport{}, fmt.Errorf("retention: record %s already shredded", id)
	}
	if m.now() < rec.ExpiresAt(m.policies[rec.Class]) {
		return device.ShredReport{}, fmt.Errorf("%w: %s expires at %v",
			ErrNotExpired, id, rec.ExpiresAt(m.policies[rec.Class]))
	}
	rep, err := m.st.Device().ShredLine(rec.Line.Start)
	if err != nil {
		return rep, err
	}
	rec.Shredded = true
	return rep, nil
}

// ShredExpired destroys every expired record and returns the count.
func (m *Manager) ShredExpired() (int, error) {
	n := 0
	for _, rec := range m.Expired() {
		if _, err := m.Shred(rec.ID); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Records returns all records sorted by ID.
func (m *Manager) Records() []Record {
	out := make([]Record, 0, len(m.records))
	for _, r := range m.records {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Decommissionable reports whether every record on the device has
// expired (shredded or not): the medium can be physically retired —
// "the lifetime of the data must be matched to the lifetime of the
// medium" (§8).
func (m *Manager) Decommissionable() bool {
	now := m.now()
	for _, rec := range m.records {
		if rec.Shredded {
			continue
		}
		if now < rec.ExpiresAt(m.policies[rec.Class]) {
			return false
		}
	}
	return true
}
