package array

import (
	"fmt"

	"sero/internal/device"
)

// Reconstruction. A stripe row is, byte column by byte column, one
// RS(D+P, D) codeword: data column dcol contributes codeword position
// dcol, parity member j contributes position D+j (exactly the
// data‖parity layout ecc.Codec.Encode produces, so the coefficient
// table and the erasure decoder agree by construction). Reconstructing
// a member's block reads the surviving members' blocks at the same
// local address — honest, charged magnetic reads on each survivor's
// own timeline — and solves the erasures per byte column with
// ecc.Codec.DecodeErasures. Blocks never committed through the array
// contribute zero columns without a read: the parity mirror never
// folded them, so zeros are exactly what the code saw.

// reconstructBlock rebuilds member m's block at lpba from the other
// members. m itself is always treated as an erasure (failed, or live
// but suspect — RepairLine reconstructs *around* a tampered member).
func (a *Array) reconstructBlock(m int, lpba uint64) ([]byte, error) {
	if a.p == 0 {
		return nil, fmt.Errorf("%w: no parity members", ErrTooManyFailures)
	}
	row := int(lpba / uint64(a.su))
	nCW := a.d + a.p

	vals := make([][]byte, nCW)
	erased := []int{a.cwPos(row, m)}
	a.mu.Lock()
	type readReq struct {
		member int
		pos    int
	}
	var reads []readReq
	for mm := 0; mm < a.n; mm++ {
		if mm == m {
			continue
		}
		pos := a.cwPos(row, mm)
		switch {
		case a.failed[mm]:
			erased = append(erased, pos)
		case !a.written[mm][lpba]:
			// Never committed through the array: a zero column.
		default:
			reads = append(reads, readReq{member: mm, pos: pos})
		}
	}
	a.mu.Unlock()
	if len(erased) > a.p {
		return nil, fmt.Errorf("%w: %d erasures, %d parity", ErrTooManyFailures, len(erased), a.p)
	}

	for _, r := range reads {
		buf, err := a.members[r.member].MRS(lpba)
		if err != nil {
			erased = append(erased, r.pos)
			if len(erased) > a.p {
				return nil, fmt.Errorf("%w: member %d also unreadable at %d: %v",
					ErrTooManyFailures, r.member, lpba, err)
			}
			continue
		}
		vals[r.pos] = buf
	}

	out := make([]byte, device.DataBytes)
	cw := make([]byte, nCW)
	target := a.cwPos(row, m)
	for b := 0; b < device.DataBytes; b++ {
		for pos := 0; pos < nCW; pos++ {
			if vals[pos] != nil {
				cw[pos] = vals[pos][b]
			} else {
				cw[pos] = 0
			}
		}
		if _, err := a.codec.DecodeErasures(cw, erased); err != nil {
			return nil, fmt.Errorf("array: reconstructing member %d block %d byte %d: %w", m, lpba, b, err)
		}
		out[b] = cw[target]
	}

	a.mu.Lock()
	a.cnt.degradedReads++
	a.cnt.reconstructed++
	a.mu.Unlock()
	return out, nil
}
