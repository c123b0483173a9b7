// Command serofsck demonstrates the §5.2 recovery path: it builds a
// device with heated evidence, simulates host-state loss and attacker
// interference (directory wipe, bulk erase), then scans the medium to
// recover every heated line and reports their verification status —
// "a fsck style scan of the medium would definitely recover (albeit
// slowly) all the heated files". It then checks the file-system side
// of recovery: the roll-forward summary chain is verified end to end
// (sequence continuity, chained checksums, back-pointer agreement with
// the imap), the checkpointed liveness table is cross-checked against
// the blocks the inodes actually own, and the checkpoint age and
// replayable-tail length are reported. Damage is a finding, not a
// tolerated condition: a double-torn checkpoint region (both slots
// damaged — a medium that must not be mounted as empty), a rejected
// liveness table, or table/imap disagreements all exit non-zero.
//
// With -devices N (and -parity P) every check runs against a striped
// multi-volume array instead of a single sled: the recovery scan
// becomes a parity-group scan over every member's medium, and
// anomalies that have no global address — evidence an attacker planted
// on a member's parity territory, outside the logical block space —
// are surfaced as per-member findings rather than silently dropped.
// The wipe attack exercises exactly that: besides losing the host
// registry, the attacker forges a heated line onto one member's parity
// territory, and the scan must attribute it to that member.
//
// With -online it instead verifies a mounted, LIVE file system: the
// incremental auditor (FS.AuditStep) sweeps the heated population in
// rounds while foreground traffic keeps writing — first proving a
// clean system yields zero findings, then forging a frame into a
// heated line mid-traffic and reporting the detection latency against
// the documented 2*ceil(L/batch) step bound. A finding on the clean
// pass, or a tamper that escapes the bound, exits non-zero. Over an
// array with parity the auditor's repair arm is wired to
// array.RepairLine, so the tampered line must not only be detected but
// healed in place from the parity group and re-verified clean; with
// -degraded one evidence-free member is failed first, and verification
// must hold while its reads reconstruct from the survivors (repair of
// a further tamper is then honestly deferred — one member down
// consumes a parity budget of 1).
//
// Usage:
//
//	serofsck [-blocks N] [-attack none|wipe|erase] [-j workers] [-inject none|torn-checkpoints|table] [-devices N -parity P]
//	serofsck -online [-blocks N] [-j workers] [-devices N -parity P [-degraded]]
//
// Flags (all validated, nonsensical values are rejected rather than
// silently clamped):
//
//	-blocks N  device size in 512-byte blocks (default 1024); with
//	           -devices this is the capacity of EACH member and must be
//	           a multiple of the 32-block stripe unit
//	-attack M  attacker action before the scan: none, wipe (directory
//	           wipe; over an array also a forged line on parity
//	           territory) or erase (bulk erase of every member);
//	           anything else is rejected (default wipe)
//	-j N       scan/audit worker fan-out; must be positive, 1 = serial
//	           (default 1)
//	-inject M  file-system damage to inject before the journal check,
//	           demonstrating the detection paths: none, torn-checkpoints
//	           (tear both checkpoint slots; the check must refuse the
//	           medium) or table (corrupt the liveness-table bytes; the
//	           check must reject the table). Either injection makes
//	           serofsck exit non-zero — that is the point (default none)
//	-devices N striped-array member count; 1 = single device (default 1)
//	-parity N  Reed–Solomon parity members, in [0, devices) (default 0)
//	-degraded  with -online: fail one evidence-free member before
//	           verification; requires -parity >= 1
//
// Example invocations:
//
//	serofsck                        # wipe attack, serial scan
//	serofsck -attack erase -j 4     # bulk erase, fanned-out recovery scan
//	serofsck -inject torn-checkpoints  # exercise the double-torn finding
//	serofsck -devices 3 -parity 1      # parity-group scan with per-member findings
//	serofsck -online                # live verification of a mounted FS
//	serofsck -online -devices 3 -parity 1            # detection + self-healing from parity
//	serofsck -online -devices 4 -parity 1 -degraded  # verification over a degraded array
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"

	"sero"
	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
)

// arrayStripe is the stripe unit every array-mode run uses — equal to
// the online FS segment size, so one segment maps to one member.
const arrayStripe = 32

func main() {
	blocks := flag.Int("blocks", 1024, "device size in 512-byte blocks (per member with -devices)")
	attackMode := flag.String("attack", "wipe", "attacker action before the scan: none, wipe, erase")
	workers := flag.Int("j", 1, "scan/audit concurrency (worker count; 1 = serial)")
	inject := flag.String("inject", "none", "file-system damage to inject: none, torn-checkpoints, table")
	online := flag.Bool("online", false, "verify a mounted, live file system with the incremental auditor instead of the offline scan")
	devices := flag.Int("devices", 1, "striped-array member count (1 = single device)")
	parity := flag.Int("parity", 0, "Reed–Solomon parity members of the array, in [0, devices)")
	degraded := flag.Bool("degraded", false, "with -online: fail one evidence-free member before verification (requires -parity >= 1)")
	flag.Parse()
	if *workers <= 0 {
		fmt.Fprintf(os.Stderr, "serofsck: -j must be positive (got %d)\n", *workers)
		os.Exit(2)
	}
	switch *inject {
	case "none", "torn-checkpoints", "table":
	default:
		fmt.Fprintf(os.Stderr, "serofsck: unknown -inject %q (want none, torn-checkpoints or table)\n", *inject)
		os.Exit(2)
	}
	if *devices < 1 {
		fmt.Fprintf(os.Stderr, "serofsck: -devices must be at least 1 (got %d)\n", *devices)
		os.Exit(2)
	}
	if *parity < 0 || *parity >= *devices {
		fmt.Fprintf(os.Stderr, "serofsck: -parity must be in [0, devices) (got %d of %d devices)\n", *parity, *devices)
		os.Exit(2)
	}
	if *devices > 1 && *blocks%arrayStripe != 0 {
		fmt.Fprintf(os.Stderr, "serofsck: with -devices, -blocks must be a multiple of the %d-block stripe unit (got %d)\n", arrayStripe, *blocks)
		os.Exit(2)
	}
	if *degraded && !*online {
		fmt.Fprintln(os.Stderr, "serofsck: -degraded requires -online")
		os.Exit(2)
	}
	if *degraded && *parity < 1 {
		fmt.Fprintln(os.Stderr, "serofsck: -degraded requires -parity >= 1 (a member loss without parity is data loss, not a demonstration)")
		os.Exit(2)
	}

	if *online {
		if err := onlineVerify(*blocks, *workers, *devices, *parity, *degraded); err != nil {
			fmt.Fprintln(os.Stderr, "serofsck:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*blocks, *attackMode, *workers, *devices, *parity); err != nil {
		fmt.Fprintln(os.Stderr, "serofsck:", err)
		os.Exit(1)
	}
	if err := fsckJournal(*blocks, *workers, *inject, *devices, *parity); err != nil {
		fmt.Fprintln(os.Stderr, "serofsck:", err)
		os.Exit(1)
	}
}

// openStore builds the store under test: one simulated sled, or a
// striped array with rotated Reed–Solomon parity behind the identical
// facade when -devices asks for width.
func openStore(blocks, workers, devices, parity int) *sero.Device {
	if devices == 1 {
		return sero.Open(sero.Options{Blocks: blocks, Quiet: true, Concurrency: workers})
	}
	return sero.OpenArray(sero.ArrayOptions{
		Options:       sero.Options{Blocks: blocks, Quiet: true, Concurrency: workers},
		Devices:       devices,
		ParityDevices: parity,
		StripeBlocks:  arrayStripe,
	})
}

// parityTerritory finds a member-local block range of span blocks,
// aligned to span, that carries parity (no global address) — the
// territory an attacker would abuse to plant evidence outside the
// logical block space.
func parityTerritory(arr *array.Array, span uint64) (member int, lpba uint64, err error) {
	data := make([]map[uint64]bool, arr.Members())
	for m := range data {
		data[m] = make(map[uint64]bool)
	}
	for g := 0; g < arr.Blocks(); g++ {
		m, l := arr.Locate(uint64(g))
		data[m][l] = true
	}
	memberBlocks := uint64(arr.MemberDevice(0).Blocks())
	for m := arr.Members() - 1; m >= 0; m-- {
		for start := uint64(0); start+span <= memberBlocks; start += span {
			clear := true
			for o := uint64(0); o < span; o++ {
				if data[m][start+o] {
					clear = false
					break
				}
			}
			if clear {
				return m, start, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("no parity territory of %d aligned blocks found", span)
}

// onlineVerify mounts a live file system, keeps foreground traffic
// running, and verifies the heated population with the incremental
// auditor: a clean two-round sweep first (zero findings expected),
// then a forged frame injected into a heated line mid-traffic, timing
// its detection against the 2*ceil(L/batch) bound. Over an array with
// spare parity the repair arm is wired: the tampered line must also be
// healed in place from the parity group; with -degraded an
// evidence-free member is failed first and verification must hold
// while its blocks reconstruct.
func onlineVerify(blocks, workers, devices, parity int, degraded bool) error {
	const auditBatch = 2
	fmt.Println("== online verification of a mounted, live file system ==")
	dev := openStore(blocks, workers, devices, parity)
	arr := dev.Array()
	fs, err := sero.NewFS(dev, sero.FSOptions{
		SegmentBlocks: 32,
		HeatAware:     true,
		Concurrency:   workers,
		AuditEvery:    16, // background rounds track write bandwidth
	})
	if err != nil {
		return err
	}
	defer fs.Close()

	// Population: three heated compliance files plus cold churn files.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("evidence%02d", i)
		ino, err := fs.Create(name, 0)
		if err != nil {
			return err
		}
		data := make([]byte, 2*sero.BlockSize)
		copy(data, fmt.Sprintf("compliance record %d", i))
		if err := fs.Write(ino, 0, data); err != nil {
			return err
		}
		if _, err := fs.HeatFile(name); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	lines := fs.Device().Lines()
	if arr != nil {
		fmt.Printf("mounted: %d heated lines over a %d-member array (%d parity, stripe unit %d blocks)\n",
			len(lines), devices, parity, arrayStripe)
	} else {
		fmt.Printf("mounted: %d heated lines under live traffic\n", len(lines))
	}

	// Degraded mode: fail a member that carries no heated evidence, so
	// the auditor's population stays electrically verifiable while every
	// read touching the lost member reconstructs from the parity group.
	failM := -1
	if degraded {
		// Broad marker files first: eight segment-sized files cover
		// every parity-rotation slot, so whichever member fails below
		// demonstrably holds committed data — its read-back must then be
		// served via reconstruction, byte-for-byte intact.
		for f := 0; f < 8; f++ {
			ino, err := fs.Create(fmt.Sprintf("span%02d", f), 2)
			if err != nil {
				return err
			}
			span := make([]byte, 32*sero.BlockSize)
			for i := range span {
				span[i] = byte(i*13 + 7 + f)
			}
			if err := fs.Write(ino, 0, span); err != nil {
				return err
			}
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		held := make([]int, arr.Members())
		for _, li := range lines {
			m, _ := arr.Locate(li.Start)
			held[m]++
		}
		for m := arr.Members() - 1; m >= 0; m-- {
			if held[m] == 0 {
				failM = m
				break
			}
		}
		if failM < 0 {
			return fmt.Errorf("every member holds heated evidence; a wider array (-devices) is needed for the degraded demonstration")
		}
		if err := arr.FailMember(failM); err != nil {
			return err
		}
		fmt.Printf("member %d fails before verification: its reads reconstruct from the parity group, its writes land in the parity shadow\n", failM)
	}

	// The repair arm: with spare parity (beyond what a degraded member
	// consumes) the auditor heals what it finds.
	failedMembers := 0
	if degraded {
		failedMembers = 1
	}
	canHeal := arr != nil && parity > failedMembers
	if canHeal {
		fs.SetAuditRepairer(arr.RepairLine)
	}

	// The live foreground: a writer keeps appending to cold files for
	// the whole verification.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%02d", i%8)
			ino, err := fs.Lookup(name)
			if err != nil {
				ino, err = fs.Create(name, 1)
			}
			if err == nil {
				blk := make([]byte, sero.BlockSize)
				copy(blk, fmt.Sprintf("live write %d", i))
				err = fs.Write(ino, 0, blk)
			}
			if err == nil && i%16 == 15 {
				err = fs.Sync()
			}
			if err != nil {
				writerErr = err
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	// Clean pass: two full rounds over the live system.
	bound := 2 * ((len(lines) + auditBatch - 1) / auditBatch)
	rounds := 0
	for s := 0; s < 2*bound && rounds < 2; s++ {
		rep, more := fs.AuditStep(auditBatch)
		if rep.RoundComplete {
			rounds++
		}
		if !more {
			break
		}
	}
	if writerErr != nil {
		return fmt.Errorf("live writer failed: %w", writerErr)
	}
	if n := len(fs.AuditFindings()); n != 0 {
		return fmt.Errorf("FINDING: %d tampered lines on a clean system", n)
	}
	fmt.Printf("clean sweep: %d rounds completed under live traffic, zero findings\n", rounds)

	// Degraded read-back: the marker files span every member, so this
	// whole-set read forces reconstruction of the failed member's
	// blocks — and must come back byte-identical (zero acked-write
	// loss while degraded).
	if degraded {
		total := 0
		for f := 0; f < 8; f++ {
			ino, lerr := fs.Lookup(fmt.Sprintf("span%02d", f))
			if lerr != nil {
				return lerr
			}
			got, rerr := fs.ReadFile(ino)
			if rerr != nil {
				return fmt.Errorf("degraded read-back of span%02d: %w", f, rerr)
			}
			for i := range got {
				if got[i] != byte(i*13+7+f) {
					return fmt.Errorf("FINDING: degraded read-back of span%02d diverged at byte %d", f, i)
				}
			}
			total += len(got)
		}
		fmt.Printf("degraded read-back: %d bytes re-read intact across the member failure\n", total)
	}

	// Tamper mid-traffic: forge a valid-looking frame into a member
	// block of the first heated line, then time its detection. Over an
	// array the forge lands raw on the owning member's medium at the
	// member-local address.
	victim := lines[0]
	member := victim.Start + 1
	forged := make([]byte, device.DataBytes)
	for i := range forged {
		forged[i] = byte(i * 7)
	}
	if arr != nil {
		vm, lpba := arr.Locate(member)
		if err := arr.MemberDevice(vm).ForgeBlock(lpba, forged); err != nil {
			return err
		}
		fmt.Printf("attacker forges block %d of heated line %d (member %d, local block %d) during live traffic\n",
			member, victim.Start, vm, lpba)
	} else {
		if err := fs.Device().(*device.Device).ForgeBlock(member, forged); err != nil {
			return err
		}
		fmt.Printf("attacker forges block %d of heated line %d during live traffic\n", member, victim.Start)
	}

	detected := func() bool {
		for _, f := range fs.AuditFindings() {
			if f.Line.Start == victim.Start {
				return true
			}
		}
		return false
	}
	steps := 0
	for ; steps < bound && !detected(); steps++ {
		fs.AuditStep(auditBatch)
	}
	if !detected() {
		return fmt.Errorf("FINDING ESCAPED: tamper of line %d not reported within the %d-step bound", victim.Start, bound)
	}
	st := fs.Stats()
	fmt.Printf("tamper detected after %d audit steps (bound %d); cumulative: %d steps, %d rounds, %d lines checked, %d findings\n",
		steps, bound, st.AuditSteps, st.AuditRounds, st.AuditLinesChecked, st.AuditFindings)

	if arr != nil {
		ast := arr.ArrayStats()
		if degraded {
			if ast.DegradedReads == 0 {
				return fmt.Errorf("FINDING: no degraded reads recorded — the reconstruction path was never exercised")
			}
			fmt.Printf("degraded serving held: %d reads served via reconstruction (%d blocks rebuilt from the parity group) with member %d down\n",
				ast.DegradedReads, ast.ReconstructedBlocks, failM)
		}
		switch {
		case canHeal:
			if st.AuditRepairs != 1 || st.AuditRepairFailures != 0 {
				return fmt.Errorf("FINDING NOT HEALED: %d repairs, %d repair failures for one tampered line",
					st.AuditRepairs, st.AuditRepairFailures)
			}
			rep, verr := arr.VerifyLine(victim.Start)
			if verr != nil || !rep.OK {
				return fmt.Errorf("FINDING NOT HEALED: line %d does not re-verify clean after repair (%v)", victim.Start, verr)
			}
			fmt.Printf("self-healing: line %d rebuilt in place from the parity group and re-verified clean (%d line repair, finding retained as evidence)\n",
				victim.Start, ast.RepairedLines)
		case degraded && parity >= 1:
			fmt.Println("repair deferred: the lost member consumes the parity budget; rebuild it first (RepairMember), then the tampered line heals")
		}
	}
	fmt.Println("online verification complete: detection holds under live load")
	return nil
}

// fsckJournal builds a file system whose syncs ride the summary tail,
// optionally injects checkpoint-region damage, then verifies the chain
// the way a recovery fsck would: mount from the last checkpoint, roll
// forward, cross-check the journaled back-pointers against the
// replayed imap and the liveness table against the inodes. Any
// damage — including the double-torn condition, where no checkpoint
// slot survives — is a finding returned as an error (non-zero exit),
// never silently tolerated. With devices > 1 the same check runs over
// the striped array — the journal lives in the global block space, so
// the verification is geometry-blind.
func fsckJournal(blocks, workers int, inject string, devices, parity int) error {
	fmt.Println("\n== file-system journal check ==")
	dev := openStore(blocks, workers, devices, parity)
	opts := sero.FSOptions{
		SegmentBlocks:   32,
		CheckpointEvery: 1 << 20, // everything after the first sync journals
		HeatAware:       true,
		Concurrency:     workers,
	}
	fs, err := sero.NewFS(dev, opts)
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("log%02d", i)
		ino, err := fs.Create(name, 0)
		if err != nil {
			return err
		}
		data := make([]byte, 2*sero.BlockSize)
		copy(data, fmt.Sprintf("audit log %d", i))
		if err := fs.Write(ino, 0, data); err != nil {
			return err
		}
		if err := fs.Sync(); err != nil {
			return err
		}
	}
	if err := fs.Rename("log00", "log00.archived"); err != nil {
		return err
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	if err := injectDamage(dev, fs, inject); err != nil {
		return err
	}
	rep, err := sero.CheckFSJournal(dev, opts)
	if errors.Is(err, sero.ErrTornCheckpoint) {
		return fmt.Errorf("FINDING: both checkpoint slots are torn or corrupt — "+
			"the medium has been formatted but no consistent state survives; "+
			"refusing to treat it as an empty file system (%w)", err)
	}
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if !rep.Healthy() {
		return fmt.Errorf("FINDING: summary chain failed verification: "+
			"%d imap mismatches, %d back-pointer mismatches, liveness table %s (%d disagreements)",
			rep.ImapMismatches, rep.BackPtrMismatches, tableState(rep), rep.TableMismatches)
	}
	fmt.Println("summary chain verified: every acked sync is replayable, liveness table agrees")
	return nil
}

// tableState renders the liveness-table half of a report for the
// findings line.
func tableState(rep sero.FSJournalReport) string {
	switch {
	case !rep.TablePresent:
		return "absent"
	case !rep.TableValid:
		return fmt.Sprintf("REJECTED (%s)", rep.TableStop)
	default:
		return "valid"
	}
}

// injectDamage applies the requested -inject fault to the checkpoint
// region through the raw device interface — the same writes an
// attacker or a failing controller could issue.
func injectDamage(dev *sero.Device, fs *sero.FS, inject string) error {
	if inject == "none" {
		return nil
	}
	slot := fs.Params().CheckpointBlocks / 2
	switch inject {
	case "torn-checkpoints":
		fmt.Println("injecting: tearing both checkpoint slots")
		garbage := make([]byte, sero.BlockSize)
		for i := range garbage {
			garbage[i] = 0xEE
		}
		for _, base := range []uint64{0, uint64(slot)} {
			if err := dev.Write(base, garbage); err != nil {
				return err
			}
		}
	case "table":
		fmt.Println("injecting: corrupting the checkpointed liveness table")
		// Flip the first byte of the table payload in every written
		// slot, leaving the core frame — and so the checkpoint — intact.
		corrupted := false
		for _, base := range []uint64{0, uint64(slot)} {
			img, _ := sero.ReadCheckpointPrefix(dev, base, slot)
			off, _, ok := lfs.SlotTable(img)
			if !ok {
				continue
			}
			blk := off / sero.BlockSize
			data := img[blk*sero.BlockSize : (blk+1)*sero.BlockSize]
			data[off%sero.BlockSize] ^= 0xFF
			if err := dev.Write(base+uint64(blk), data); err != nil {
				return err
			}
			corrupted = true
		}
		if !corrupted {
			return fmt.Errorf("inject table: no liveness table found to corrupt")
		}
	}
	return nil
}

func run(blocks int, attackMode string, workers, devices, parity int) error {
	dev := openStore(blocks, workers, devices, parity)
	arr := dev.Array()

	// Populate: three heated lines of compliance records.
	for i := 0; i < 3; i++ {
		var lineBlocks [][]byte
		for b := 0; b < 3; b++ {
			blk := make([]byte, sero.BlockSize)
			copy(blk, fmt.Sprintf("compliance record %d.%d", i, b))
			lineBlocks = append(lineBlocks, blk)
		}
		start, logN, err := dev.WriteLine(lineBlocks)
		if err != nil {
			return err
		}
		if _, err := dev.Heat(start, logN); err != nil {
			return err
		}
	}
	fmt.Printf("prepared %d heated lines\n", len(dev.Lines()))
	if arr != nil {
		fmt.Printf("array geometry: %d members, %d parity, stripe unit %d blocks (%d logical blocks)\n",
			devices, parity, arrayStripe, arr.Blocks())
	}

	switch attackMode {
	case "none":
	case "wipe":
		fmt.Println("attacker wipes all host metadata (device registry lost)")
		// Recover() below rebuilds from the medium alone, which is the
		// point of the demonstration. Over an array with parity the
		// attacker additionally plants a forged heated line on one
		// member's parity territory — an address outside the logical
		// block space; the parity-group scan must attribute it to the
		// member instead of dropping it.
		if arr != nil && parity > 0 {
			m, lpba, err := parityTerritory(arr, 4)
			if err != nil {
				return err
			}
			var rogue [][]byte
			for b := 0; b < 3; b++ {
				blk := make([]byte, sero.BlockSize)
				copy(blk, fmt.Sprintf("forged evidence %d", b))
				rogue = append(rogue, blk)
			}
			mdev := arr.MemberDevice(m)
			if err := mdev.WriteLineBatch(lpba, 2, rogue); err != nil {
				return err
			}
			if _, err := mdev.HeatLine(lpba, 2); err != nil {
				return err
			}
			fmt.Printf("attacker also plants a forged heated line on member %d's parity territory (local block %d)\n", m, lpba)
		}
	case "erase":
		fmt.Println("attacker runs a bulk eraser over the medium")
		if arr != nil {
			for m := 0; m < arr.Members(); m++ {
				arr.MemberDevice(m).Medium().BulkErase()
			}
		} else {
			dev.RawDevice().Medium().BulkErase()
		}
	default:
		return fmt.Errorf("unknown attack %q", attackMode)
	}

	rep, err := dev.Recover()
	if err != nil {
		return err
	}
	fmt.Printf("scan recovered %d heated lines (%d unparseable, %d conflicts)\n",
		len(rep.Lines), len(rep.Unparseable), len(rep.Conflicts))
	for _, li := range rep.Lines {
		vr, err := dev.Verify(li.Start)
		if err != nil {
			return err
		}
		status := "intact"
		if vr.Tampered() {
			status = "TAMPERED (evidence preserved)"
		}
		fmt.Printf("  line %4d (+%2d blocks, heated at t=%dns): %s\n",
			li.Start, li.Blocks(), li.Record.HeatedAt, status)
	}
	if arr != nil {
		findings := arr.ScanFindings()
		fmt.Printf("parity-group scan: %d per-member findings\n", len(findings))
		for _, f := range findings {
			fmt.Printf("  member %d: %s at local block %d\n", f.Member, f.Kind, f.Local)
		}
		if attackMode == "wipe" && parity > 0 && len(findings) == 0 {
			return fmt.Errorf("FINDING ESCAPED: the forged line on parity territory was not surfaced by the member scans")
		}
		ast := arr.ArrayStats()
		for m, c := range ast.MemberClocks {
			state := "live"
			if ast.Failed[m] {
				state = "FAILED"
			}
			fmt.Printf("  member %d: %s, clock %v\n", m, state, c)
		}
	}
	fmt.Println(dev.Audit().Summary())
	return nil
}
