package device

import (
	"fmt"

	"sero/internal/probe"
)

// Shred implements the §8 "Deletion" discussion: "it is possible to
// implement a physical shred operation on the device ... which in our
// case would physically destroy the expired data by precise local
// heating". Shredding a heated line destroys the data blocks' dots
// electrically — the data is unrecoverable, but the operation is
// itself loud: the line's hash no longer verifies and every shredded
// dot is permanent H evidence. The paper notes this is "not wholly
// satisfactory" against a dishonest CEO, which is precisely why the
// operation refuses to run without the line being expired by the
// caller's retention policy — policy lives above the device.

// ShredReport describes a completed shred.
type ShredReport struct {
	// Line is the shredded line.
	Line LineInfo
	// DotsDestroyed counts electrical writes issued.
	DotsDestroyed int
}

// ShredLine destroys the data blocks of the heated line at start by
// heating every dot of every member block (block 0's record is left
// as the tombstone). The line remains registered; VerifyLine will
// forever report its data unreadable — a shredded line is evidence of
// deletion, not absence of evidence.
func (d *Device) ShredLine(start uint64) (ShredReport, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.regMu.RLock()
	li, ok := d.lines[start]
	d.regMu.RUnlock()
	if !ok {
		return ShredReport{}, fmt.Errorf("%w: no heated line at %d", ErrNotHeated, start)
	}
	locked := d.lockCrosstalkRange(li.Start, li.End())
	defer d.unlockRange(locked)
	destroyed := 0
	// One batched heat command over the contiguous data-block run: the
	// servo settles once and the destroying pulses stream.
	runBase := d.dotBase(li.Start + 1)
	runDots := int(li.End()-li.Start-1) * DotsPerBlock
	total := d.fg.charge(d, func(a *probe.Array) {
		a.ChargeWriteSetup()
		a.ChargeElectricWrite(d.chargeIndex(runBase), runDots)
	})
	for i := 0; i < runDots; i++ {
		d.med.EWB(runBase + i)
		destroyed++
	}
	d.regMu.Lock()
	for pba := li.Start + 1; pba < li.End(); pba++ {
		d.heated[pba] = true
	}
	d.regMu.Unlock()
	d.fg.record(d, func(st *OpStats) {
		st.ElectricWrites++
		st.ElectricWriteNS += total
	})
	return ShredReport{Line: li, DotsDestroyed: destroyed}, nil
}

// IsShredded reports whether every data block of the line at start has
// been destroyed electrically (sampled via the erb protocol).
func (d *Device) IsShredded(start uint64) (bool, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	d.regMu.RLock()
	li, ok := d.lines[start]
	d.regMu.RUnlock()
	if !ok {
		return false, fmt.Errorf("%w: no heated line at %d", ErrNotHeated, start)
	}
	locked := d.lockRange(li.Start, li.End())
	defer d.unlockRange(locked)
	for pba := li.Start + 1; pba < li.End(); pba++ {
		base := d.dotBase(pba)
		// Sample a handful of dots; a shredded block has all dots H.
		for s := 0; s < 8; s++ {
			if !d.erbDot(base + s*DotsPerBlock/8) {
				return false, nil
			}
		}
	}
	return true, nil
}
