// Package attack implements the §5 security analysis as an executable
// harness. The threat model (Hsu and Ong [19], Hasan et al. [14]): a
// powerful insider with root on every connected host and temporary raw
// access to the device wants a stored record forgotten without drawing
// attention. Attacks run against a prepared file system with heated
// files; each returns whether the SERO design prevented the attack
// outright or detected it afterwards.
package attack

import (
	"fmt"
	"math/bits"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/sim"
)

// Result records the outcome of one attack.
type Result struct {
	// Name identifies the attack (§5 taxonomy).
	Name string
	// Description explains what the attacker did.
	Description string
	// Prevented is true when the system refused the operation outright
	// (e.g. the honest device rejects writes to heated blocks).
	Prevented bool
	// Detected is true when verification after the attack reports
	// tampering.
	Detected bool
	// Notes carries details (which check fired).
	Notes string
}

// Outcome summarises Prevented/Detected as the paper's classification.
func (r Result) Outcome() string {
	switch {
	case r.Prevented:
		return "prevented"
	case r.Detected:
		return "detected"
	default:
		return "UNDETECTED"
	}
}

// Harness prepares a victim environment and runs attacks.
type Harness struct {
	fs *lfs.FS
	// raw is the sled under the file system: adversary access is
	// physical, per-device access, so the harness requires the fs to
	// sit on a single raw device (array campaigns tamper a chosen
	// member through array.MemberDevice instead).
	raw *device.Device
	rng *sim.RNG
	// victim is the heated file under attack.
	victim string
	// line is the victim's heated line.
	line device.LineInfo
}

// NewHarness builds a victim file system: a heated file (the record
// the attacker regrets) plus unheated bystander files.
func NewHarness(fs *lfs.FS, seed uint64) (*Harness, error) {
	h := &Harness{fs: fs, rng: sim.NewRNG(seed), victim: "incriminating-record"}
	raw, ok := fs.Device().(*device.Device)
	if !ok {
		return nil, fmt.Errorf("attack: harness requires a raw single device, got %T", fs.Device())
	}
	h.raw = raw
	ino, err := fs.Create(h.victim, 1)
	if err != nil {
		return nil, err
	}
	content := make([]byte, 3*device.DataBytes)
	for i := range content {
		content[i] = byte(h.rng.Uint64())
	}
	if err := fs.WriteFile(ino, content); err != nil {
		return nil, err
	}
	res, err := fs.HeatFile(h.victim)
	if err != nil {
		return nil, err
	}
	h.line = res.Line
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("bystander-%d", i)
		bIno, cerr := fs.Create(name, 0)
		if cerr != nil {
			return nil, cerr
		}
		if werr := fs.WriteFile(bIno, content[:device.DataBytes]); werr != nil {
			return nil, werr
		}
	}
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return h, nil
}

// Victim returns the heated file's name.
func (h *Harness) Victim() string { return h.victim }

// FS returns the file system under attack, for campaigns that drive
// live traffic and audits around the attacks.
func (h *Harness) FS() *lfs.FS { return h.fs }

// tamper runs f against the raw medium with the stripe locks covering
// blocks [start, end) held, widened by one block on each side so an
// electrical write's thermal crosstalk stays inside the locked range.
// All raw-access attacks go through this so campaigns can run them
// concurrently with live device traffic without simulator-level data
// races — the adversary's probe tip is atomic with honest commands at
// block granularity, exactly like the §5 threat model's raw access.
func (h *Harness) tamper(start, end uint64, f func(m *medium.Medium)) {
	if start > 0 {
		start--
	}
	h.raw.TamperRaw(start, end+1, f)
}

// verifyDetects re-verifies the victim and reports whether tampering
// is flagged.
func (h *Harness) verifyDetects() (bool, string) {
	reps, err := h.fs.VerifyFile(h.victim)
	if err != nil {
		return true, fmt.Sprintf("verification error: %v", err)
	}
	for _, r := range reps {
		if r.Tampered() {
			why := ""
			if r.RecordDamaged {
				why += fmt.Sprintf("record damaged (%d HH cells); ", r.TamperedCells)
			}
			if r.HashMismatch {
				why += "hash mismatch; "
			}
			if len(r.ReadErrors) > 0 {
				why += fmt.Sprintf("%d unreadable blocks; ", len(r.ReadErrors))
			}
			return true, why
		}
	}
	return false, "verify reports clean"
}

// RunAll executes the full §5 attack matrix in a fixed order. Attacks
// that mutate state use disjoint targets so each result is
// attributable; the victim's line is re-verified after each attack.
func (h *Harness) RunAll() []Result {
	return []Result{
		h.AttackFSOverwrite(),
		h.AttackMWBHash(),
		h.AttackMWBData(),
		h.AttackEWBHash(),
		h.AttackEWBData(),
		h.AttackSplitFile(),
		h.AttackCoalesce(),
		h.AttackRm(),
		h.AttackCopyMask(),
		h.AttackClearDirectory(),
		h.AttackBulkErase(),
	}
}

// AttackFSOverwrite tries the easy path: a write through the file
// system. The honest FS refuses (prevention, not just detection).
func (h *Harness) AttackFSOverwrite() Result {
	r := Result{
		Name:        "fs-overwrite",
		Description: "overwrite the heated file via the file system API",
	}
	ino, err := h.fs.Lookup(h.victim)
	if err == nil {
		err = h.fs.Write(ino, 0, []byte("rewritten history"))
	}
	if err != nil {
		r.Prevented = true
		r.Notes = err.Error()
	}
	return r
}

// AttackMWBHash magnetises the heated hash dots (§5.1 "mwb hash": no
// effect — only presence/absence of out-of-plane dots matters).
func (h *Harness) AttackMWBHash() Result {
	r := Result{
		Name:        "mwb-hash",
		Description: "magnetically rewrite the electrically written hash dots",
	}
	base := int(h.line.Start)*device.DotsPerBlock + device.HeaderBytes*8
	flips := make([]bool, 1024)
	for i := range flips {
		flips[i] = h.rng.Bool()
	}
	h.tamper(h.line.Start, h.line.Start+1, func(med *medium.Medium) {
		for i, b := range flips {
			med.MWB(base+i, b)
		}
	})
	detected, notes := h.verifyDetects()
	// No effect is the *correct* outcome: the hash still verifies and
	// the data is intact, so the attack achieved nothing. Classify as
	// prevented-by-physics.
	if !detected {
		r.Prevented = true
		r.Notes = "magnetisation of heated dots has no effect; line still verifies clean"
	} else {
		r.Detected = true
		r.Notes = notes
	}
	return r
}

// AttackMWBData rewrites a data block of the heated line with a forged
// but internally consistent frame (§5.1 "mwb inode/data": detected by
// verify).
func (h *Harness) AttackMWBData() Result {
	r := Result{
		Name:        "mwb-data",
		Description: "raw-rewrite a heated data block with a forged valid frame",
	}
	target := h.line.Start + 2 // first data block after hash+inode
	forged := make([]byte, device.DataBytes)
	for i := range forged {
		forged[i] = byte(h.rng.Uint64())
	}
	if err := h.raw.ForgeBlock(target, forged); err != nil {
		r.Notes = err.Error()
		return r
	}
	r.Detected, r.Notes = h.verifyDetects()
	return r
}

// AttackEWBHash heats extra dots of the stored hash (§5.1 "ewb hash":
// UH/HU → HH, an illegal code).
func (h *Harness) AttackEWBHash() Result {
	r := Result{
		Name:        "ewb-hash",
		Description: "heat additional dots of the stored hash (UH/HU → HH)",
	}
	base := int(h.line.Start)*device.DotsPerBlock + device.HeaderBytes*8
	h.tamper(h.line.Start, h.line.Start+1, func(med *medium.Medium) {
		for cell := 0; cell < 8; cell++ {
			med.EWB(base + 2*cell)
			med.EWB(base + 2*cell + 1)
		}
	})
	r.Detected, r.Notes = h.verifyDetects()
	return r
}

// AttackEWBData heats dots inside a heated-line data block (§5.1 "ewb
// inode/data": appears as a read error).
func (h *Harness) AttackEWBData() Result {
	r := Result{
		Name:        "ewb-data",
		Description: "electrically destroy dots of a heated data block",
	}
	target := h.line.Start + 3
	base := int(target) * device.DotsPerBlock
	h.tamper(target, target+1, func(med *medium.Medium) {
		for i := 0; i < device.DotsPerBlock; i += 3 {
			med.EWB(base + i)
		}
	})
	r.Detected, r.Notes = h.verifyDetects()
	return r
}

// AttackSplitFile crafts a data block that looks like a valid hash
// record plus inode, attempting the §5.1 splitting attack. The device
// defeats it structurally: hashes live only at known line-aligned
// physical addresses, so the forged "record" at an unaligned address
// is never consulted.
func (h *Harness) AttackSplitFile() Result {
	r := Result{
		Name: "split-file",
		Description: "craft data resembling hash+inode mid-line to split " +
			"the file into two apparently genuine files",
	}
	dev := h.raw
	// The forged record claims a line at the victim's third block —
	// not a multiple of the line size.
	forgedStart := h.line.Start + 2
	rec := device.HeatRecord{LogN: 1, Start: forgedStart}
	// Write it as *magnetic* data (the attacker cannot electrically
	// write without creating evidence; that path is ewb-data).
	buf := make([]byte, device.DataBytes)
	copy(buf, rec.Marshal())
	if err := dev.ForgeBlock(forgedStart, buf); err != nil {
		r.Notes = err.Error()
		return r
	}
	// Does the device now believe there is a line at forgedStart? A
	// scan only accepts *electrically* written records at aligned
	// addresses.
	if _, err := dev.VerifyLine(forgedStart); err != nil {
		r.Prevented = true
		r.Notes = "no heated line recognised at forged address: " + err.Error()
	}
	// And the mutation of the real line is detected regardless.
	detected, notes := h.verifyDetects()
	r.Detected = detected
	if detected {
		r.Notes += "; original line: " + notes
	}
	return r
}

// AttackCoalesce attempts the §5.1 coalescing attack: forge a heat
// record at an aligned free block whose claimed line *swallows* the
// victim's genuine line, making two files look like one. The attacker
// can even compute a correct hash over the swallowed blocks (they are
// magnetically readable), so the forged line verifies in isolation —
// but the genuine record still exists at its own well-defined physical
// address, and the overlapping claims are themselves the evidence.
func (h *Harness) AttackCoalesce() Result {
	r := Result{
		Name: "coalesce",
		Description: "electrically forge an enclosing line record to merge the " +
			"victim with neighbouring data",
	}
	dev := h.raw

	// Find the aligned enclosing range one size up from the victim.
	size := h.line.Blocks() * 2
	encStart := h.line.Start - h.line.Start%size
	if encStart == h.line.Start {
		// Record slot would collide with the genuine record; forging
		// there produces HH cells immediately (that path is ewb-hash).
		// Use the enclosing range two sizes up instead.
		size *= 2
		encStart = h.line.Start - h.line.Start%size
	}
	rec := device.HeatRecord{
		LogN:  uint8(max(bits.Len64(size)-1, 0)),
		Start: encStart,
	}
	// The attacker writes the forged record electrically at the
	// enclosing start (a free block in this scenario).
	if err := dev.EWS(encStart, rec.Marshal()); err != nil {
		r.Prevented = true
		r.Notes = "device refused the forged record write: " + err.Error()
		return r
	}

	// Detection: a recovery scan now sees overlapping line claims —
	// two records whose ranges intersect cannot both be genuine.
	recovered, unparseable, err := dev.Scan()
	if err != nil {
		r.Notes = "scan failed: " + err.Error()
		return r
	}
	overlaps := 0
	for i := range recovered {
		for j := i + 1; j < len(recovered); j++ {
			a, b := recovered[i], recovered[j]
			if a.Start < b.End() && b.Start < a.End() {
				overlaps++
			}
		}
	}
	if overlaps > 0 {
		r.Detected = true
		r.Notes = fmt.Sprintf("recovery scan found %d overlapping line claims (%d unparseable)",
			overlaps, len(unparseable))
	} else if len(unparseable) > 0 {
		r.Detected = true
		r.Notes = fmt.Sprintf("%d unparseable electrical blocks", len(unparseable))
	}
	return r
}

// AttackRm deletes the victim through the file system (§5.2: rm
// implies writing the inode, which is tamper-evident; the honest FS
// simply refuses).
func (h *Harness) AttackRm() Result {
	r := Result{
		Name:        "rm",
		Description: "rm the heated file",
	}
	if err := h.fs.Delete(h.victim); err != nil {
		r.Prevented = true
		r.Notes = err.Error()
	} else {
		r.Detected, r.Notes = h.verifyDetects()
	}
	return r
}

// AttackCopyMask copies the victim's blocks to fresh addresses hoping
// the copy masks the original (§5.2: impossible because physical
// addresses are hashed; "a copy can always be distinguished from an
// original").
func (h *Harness) AttackCopyMask() Result {
	r := Result{
		Name:        "copy-mask",
		Description: "copy the heated file's blocks elsewhere to mask the original",
	}
	dev := h.raw
	// Earlier attacks in RunAll may already have damaged the line;
	// this attack is judged by what *it* changes.
	damagedBefore, _ := h.verifyDetects()
	// Copy data blocks raw to a far-away region.
	destBase := uint64(dev.Blocks() - 8)
	for i := uint64(0); i < h.line.Blocks()-1; i++ {
		src := h.line.Start + 1 + i
		data, err := dev.MRS(src)
		if err != nil {
			continue
		}
		if err := dev.ForgeBlock(destBase+i, data); err != nil {
			r.Notes = err.Error()
			return r
		}
	}
	// The copy cannot reproduce the heated hash binding: verifying a
	// "line" at the copy's address finds nothing, and the original
	// still verifies as the one true instance.
	if _, err := dev.VerifyLine(destBase); err != nil {
		r.Prevented = true
		r.Notes = "copy carries no heated hash at its address: " + err.Error()
	}
	if detected, _ := h.verifyDetects(); detected && !damagedBefore {
		// Copying must NOT damage the original.
		r.Prevented = false
		r.Detected = true
		r.Notes = "unexpected: original damaged by copy"
	}
	return r
}

// AttackClearDirectory wipes the file system's metadata (checkpoint
// region and directory) to orphan the heated file (§5.2: "Assume that
// the attacker clears the directory structure, then a fsck style scan
// of the medium would definitely recover (albeit slowly) all the
// heated files").
func (h *Harness) AttackClearDirectory() Result {
	r := Result{
		Name:        "clear-directory",
		Description: "wipe the FS checkpoint/directory to orphan the heated file",
	}
	dev := h.raw
	// Raw-wipe the checkpoint region (first segment of the device).
	garbage := make([]byte, device.DataBytes)
	for i := range garbage {
		garbage[i] = byte(h.rng.Uint64())
	}
	for pba := uint64(0); pba < 32; pba++ {
		if err := dev.ForgeBlock(pba, garbage); err != nil {
			r.Notes = err.Error()
			return r
		}
	}
	// The access path is gone, but the medium scan recovers the line —
	// availability is restored, so the attack fails its goal. (When an
	// earlier attack in the sequence already burnt the record into HH
	// cells, the scan surfaces it as unparseable electrical data: the
	// file's content is damaged but its existence is still evident.)
	recovered, unparseable, err := dev.Scan()
	if err != nil {
		r.Notes = "scan failed: " + err.Error()
		return r
	}
	for _, li := range recovered {
		if li.Start == h.line.Start {
			rep, verr := dev.VerifyLine(li.Start)
			if verr == nil && !rep.Tampered() {
				r.Prevented = true
				r.Notes = "fsck-style scan recovered the heated file intact; directory loss is recoverable"
			} else {
				r.Detected = true
				r.Notes = "heated file recovered with evidence of prior damage"
			}
			return r
		}
	}
	for _, pba := range unparseable {
		if pba == h.line.Start {
			r.Detected = true
			r.Notes = "scan surfaced the orphaned record as damaged electrical evidence"
			return r
		}
	}
	r.Notes = "heated file lost after directory wipe"
	return r
}

// AttackBulkErase degausses the whole medium (§5.2: magnetic data is
// gone but every electrically written hash survives as evidence).
// Destructive to everything; run last.
func (h *Harness) AttackBulkErase() Result {
	r := Result{
		Name:        "bulk-erase",
		Description: "degauss the entire medium",
	}
	dev := h.raw
	dev.TamperExclusive(func(med *medium.Medium) { med.BulkErase() })
	// Recovery scan still finds the electrical evidence: either an
	// intact heated line, or (when an earlier attack already damaged
	// the record into HH cells) an unparseable electrically written
	// block — both survive the degausser and both are evidence.
	recovered, unparseable, err := dev.Scan()
	if err != nil {
		r.Notes = "scan failed: " + err.Error()
		return r
	}
	found := false
	for _, li := range recovered {
		if li.Start == h.line.Start {
			found = true
		}
	}
	if !found {
		for _, pba := range unparseable {
			if pba == h.line.Start {
				r.Detected = true
				r.Notes = "electrical evidence survives the degausser as a damaged (HH) record"
				return r
			}
		}
		r.Notes = "heated line lost after bulk erase"
		return r
	}
	// ...and verification reports the data destroyed.
	rep, err := dev.VerifyLine(h.line.Start)
	if err != nil {
		r.Notes = "verify failed: " + err.Error()
		return r
	}
	if rep.Tampered() {
		r.Detected = true
		r.Notes = fmt.Sprintf("line survives as evidence; verify reports tampering (hash mismatch=%v, unreadable=%d)",
			rep.HashMismatch, len(rep.ReadErrors))
	}
	return r
}
