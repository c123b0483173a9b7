package device

import "fmt"

// Line repair: the service action behind the array's self-healing
// story. Heating is irreversible dot by dot, so a tampered heated line
// cannot be "fixed" in place — repair splices factory-fresh dots into
// the line's region (medium.ReplaceRegion), rewrites the magnetic
// payloads from reconstructed data, and re-heats the line so the heat
// record is re-established on the new dots. The caller (the array's
// parity path, or an operator restoring from a verified backup) is
// responsible for the payloads being the *true* data; the device's
// job is only to make the repair physically honest: the old dots and
// their evidence are discarded with the old region, and the new
// record's hash binds the new payloads at the same addresses.

// ReplaceLine replaces the 1<<logN blocks at start with fresh media,
// writes payloads (block start+1+i gets payloads[i]; slack up to the
// line end is zero-filled) and re-heats the line. The returned
// LineInfo carries the fresh heat record; its hash equals the original
// line's hash whenever the payloads match the original data, because
// the hash binds (PBA‖data) pairs and the addresses are unchanged.
// HeatedAt reflects the repair time — a repaired line does not hide
// that it was repaired.
func (d *Device) ReplaceLine(start uint64, logN uint8, payloads [][]byte) (LineInfo, error) {
	if logN < 1 || logN > 20 {
		return LineInfo{}, fmt.Errorf("%w: logN=%d", ErrBadLine, logN)
	}
	n := uint64(1) << logN
	if start%n != 0 {
		return LineInfo{}, fmt.Errorf("%w: start %d not aligned to %d", ErrBadLine, start, n)
	}
	if uint64(len(payloads)) > n-1 {
		return LineInfo{}, fmt.Errorf("%w: %d payloads for a %d-block line", ErrBadLine, len(payloads), n)
	}
	blocks := make([][]byte, n-1)
	for i := range blocks {
		if i < len(payloads) && payloads[i] != nil {
			if len(payloads[i]) != DataBytes {
				return LineInfo{}, fmt.Errorf("device: payload %d is %d bytes, want %d", i, len(payloads[i]), DataBytes)
			}
			blocks[i] = payloads[i]
		} else {
			blocks[i] = make([]byte, DataBytes)
		}
	}

	d.gate.RLock()
	if start+n > uint64(d.p.Blocks) {
		d.gate.RUnlock()
		return LineInfo{}, fmt.Errorf("%w: line [%d,%d) beyond %d blocks",
			ErrOutOfRange, start, start+n, d.p.Blocks)
	}
	locked := d.lockCrosstalkRange(start, start+n)

	// Splice in the spare region and scrub the host view of the old
	// one: registry entries, heated flags and bad-block marks inside
	// the line are gone with the old dots.
	d.med.ReplaceRegion(d.dotBase(start), d.dotBase(start+n))
	d.regMu.Lock()
	for {
		li, ok := d.overlappingLine(start, start+n)
		if !ok {
			break
		}
		delete(d.lines, li.Start)
	}
	for pba := start; pba < start+n; pba++ {
		delete(d.heated, pba)
		delete(d.bad, pba)
	}
	d.regMu.Unlock()

	// Rewrite the payloads as one batched run on the foreground plane
	// (one settle, streamed writes) — the same charge an honest write
	// of the line costs; the mechanical splice is service time, not
	// device time. writeRunOn records stats and feeds the write
	// observer, so a crash-reconstruction stream sees the repair as
	// the honest rewrite it is.
	d.writeRunOn(&d.fg, start+1, blocks, nil)
	d.unlockRange(locked)
	d.gate.RUnlock()

	// Re-establish the evidence on the new dots. HeatLine re-reads the
	// payloads and hashes (PBA‖data), so the record is exactly what an
	// original heat of this data would have produced.
	li, err := d.HeatLine(start, logN)
	if err != nil {
		return LineInfo{}, fmt.Errorf("device: re-heating replaced line at %d: %w", start, err)
	}
	return li, nil
}
