package attack

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/sim"
	"sero/internal/workload"
)

// TestLiveCampaignDetectsEverything is the concurrency tentpole: the
// §5 matrix against a live system — workload sessions, the racing
// cooperative cleaner and continuous audit rounds all in flight. Every
// attack must stay prevented-or-detected, the victim tamper must
// surface within the documented audit bound, and every acked write
// must survive.
func TestLiveCampaignDetectsEverything(t *testing.T) {
	sessions := 4
	ops := 384
	if raceDetector {
		sessions, ops = 2, 192
	}
	h, err := NewQuietHarness(QuietConfig{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.RunLiveCampaign(CampaignConfig{
		Sessions:      sessions,
		OpsPerSession: ops,
		CleanTarget:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsApplied == 0 {
		t.Fatal("campaign applied no workload ops")
	}
	if rep.AckedFiles != sessions {
		t.Fatalf("only %d/%d acked files survived", rep.AckedFiles, sessions)
	}
	for _, r := range append(append([]Result{}, rep.Live...), rep.Destructive...) {
		if !r.Prevented && !r.Detected {
			t.Errorf("attack %q neither prevented nor detected under live load: %s", r.Name, r.Notes)
		}
	}
	if rep.DetectionSteps < 0 {
		t.Fatalf("victim tamper not detected within %d audit steps", rep.DetectionBound)
	}
	if rep.DetectionSteps > rep.DetectionBound {
		t.Fatalf("detection took %d steps, documented bound is %d", rep.DetectionSteps, rep.DetectionBound)
	}
	if rep.FSStats.AuditLinesChecked == 0 {
		t.Fatal("campaign audit checked no lines")
	}
	if rep.FSStats.AuditFindings == 0 {
		t.Fatal("campaign audit recorded no findings despite tampering attacks")
	}
}

// heatExtraLines freezes n additional files so the auditor has a
// population to sweep, returning every heated line on the device.
func heatExtraLines(t *testing.T, fs *lfs.FS, n int) []device.LineInfo {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("frozen-%d", i)
		ino, err := fs.Create(name, uint8(i%4))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(ino, bytes.Repeat([]byte{byte(i + 1)}, 2*device.DataBytes)); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.HeatFile(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs.Device().Lines()
}

// tamperRandomBlock forges a valid-looking frame into a random member
// block of line li — raw access under the stripe locks, like a
// campaign attack — and returns the tampered line start.
func tamperRandomBlock(t testing.TB, dev *device.Device, rng *sim.RNG, li device.LineInfo) uint64 {
	member := li.Start + 1 + rng.Uint64()%(li.Blocks()-1)
	forged := make([]byte, device.DataBytes)
	for i := range forged {
		forged[i] = byte(rng.Uint64())
	}
	if err := dev.ForgeBlock(member, forged); err != nil {
		t.Fatal(err)
	}
	return li.Start
}

// driveUntilFound drives audit steps until the tampered line surfaces,
// returning the step count (capped at bound+1 on failure).
func driveUntilFound(fs *lfs.FS, batch int, bound int, tampered uint64) int {
	found := func() bool {
		for _, f := range fs.AuditFindings() {
			if f.Line.Start == tampered {
				return true
			}
		}
		return false
	}
	if found() {
		return 0
	}
	for step := 1; step <= bound; step++ {
		fs.AuditStep(batch)
		if found() {
			return step
		}
	}
	return bound + 1
}

// TestDetectionLatencyBound is the property test: one tamper injected
// at a random heated block at a random time during a live mix must be
// reported by the incremental auditor within the documented
// 2*ceil(L/batch) step bound — serially (j=1), with four concurrent
// sessions (j=4), and with the cooperative cleaner racing the audit
// drive (race-clean).
func TestDetectionLatencyBound(t *testing.T) {
	const batch = 2
	run := func(t *testing.T, iter int, j int, raceClean bool) {
		h, err := NewQuietHarness(QuietConfig{Blocks: 4096, Seed: uint64(1000 + iter)})
		if err != nil {
			t.Fatal(err)
		}
		fs := h.FS()
		lines := heatExtraLines(t, fs, 4)
		rng := sim.NewRNG(uint64(7700 + 13*iter + j))
		victim := lines[rng.Uint64()%uint64(len(lines))]
		bound := 2 * ((len(lines) + batch - 1) / batch)

		var tampered uint64
		if j == 1 {
			// Serial mix with the tamper injected between two ops at a
			// random position.
			mix := workload.DefaultMix(8, 128)
			mix.Prefix = "dl"
			ops := mix.Generate(sim.NewRNG(uint64(31 + iter)))
			at := int(rng.Uint64() % uint64(len(ops)))
			ap := workload.NewApplier(fs)
			for i, op := range ops {
				if i == at {
					tampered = tamperRandomBlock(t, fs.Device().(*device.Device), rng, victim)
				}
				if err := ap.Apply(op); err != nil {
					t.Fatal(err)
				}
			}
			if tampered == 0 {
				tampered = tamperRandomBlock(t, fs.Device().(*device.Device), rng, victim)
			}
		} else {
			// j concurrent sessions; the tamper lands from this
			// goroutine while they run (scheduler-random timing).
			var wg sync.WaitGroup
			errs := make(chan error, j)
			for s := 0; s < j; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					mix := workload.DefaultMix(8, 96)
					mix.Prefix = fmt.Sprintf("dl%d", s)
					ops := mix.Generate(sim.NewRNG(uint64(31 + iter*17 + s)))
					if _, err := workload.Apply(fs, ops); err != nil {
						errs <- err
					}
				}(s)
			}
			runtime.Gosched()
			tampered = tamperRandomBlock(t, fs.Device().(*device.Device), rng, victim)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}

		stop := make(chan struct{})
		var cw sync.WaitGroup
		if raceClean {
			cw.Add(1)
			go func() {
				defer cw.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					fs.CleanStep(6)
					runtime.Gosched()
				}
			}()
		}
		steps := driveUntilFound(fs, batch, bound, tampered)
		close(stop)
		cw.Wait()
		if steps > bound {
			t.Fatalf("iter %d j=%d raceClean=%v: tamper of line %d not detected within %d steps (L=%d)",
				iter, j, raceClean, tampered, bound, len(lines))
		}
	}
	iters := 4
	if raceDetector {
		iters = 2
	}
	for _, tc := range []struct {
		name      string
		j         int
		raceClean bool
	}{
		{"j1", 1, false},
		{"j4", 4, false},
		{"j1-race-clean", 1, true},
		{"j4-race-clean", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for iter := 0; iter < iters; iter++ {
				run(t, iter, tc.j, tc.raceClean)
			}
		})
	}
}

// soakResult captures everything the false-positive soak compares
// across audit-on and audit-off runs.
type soakResult struct {
	virt     time.Duration
	digest   [32]byte
	stats    lfs.Stats
	findings int
}

// runSoak executes the deterministic j=1 soak: heated population, long
// serial mix, inline CleanStep cadence identical in both
// configurations; the audit delta (background cadence + inline steps)
// is the only difference.
func runSoak(t *testing.T, auditOn bool, ops int) soakResult {
	t.Helper()
	cfg := QuietConfig{Blocks: 4096}
	if auditOn {
		cfg.AuditEvery = 64
	}
	h, err := NewQuietHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := h.FS()
	heatExtraLines(t, fs, 4)

	mix := workload.DefaultMix(16, ops)
	mix.Prefix = "soak"
	stream := mix.Generate(sim.NewRNG(99))
	ap := workload.NewApplier(fs)
	for i, op := range stream {
		if err := ap.Apply(op); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			fs.CleanStep(6)
		}
		if auditOn && i%8 == 7 {
			fs.AuditStep(2)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	res := soakResult{
		virt:     fs.Device().Clock().Now(),
		stats:    fs.Stats(),
		findings: len(fs.AuditFindings()),
	}
	names := fs.Names()
	sort.Strings(names)
	hash := sha256.New()
	for _, n := range names {
		ino, err := fs.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.ReadFile(ino)
		if err != nil {
			t.Fatalf("read %s: %v", n, err)
		}
		hash.Write([]byte(n))
		hash.Write(data)
	}
	copy(res.digest[:], hash.Sum(nil))
	return res
}

// TestFalsePositiveSoak runs live traffic + background clean + audit
// rounds with no tampering: the auditor must report zero findings, and
// the audit-on run must be byte-identical in virtual time and contents
// to the audit-off run at j=1 (the off-clock contract). make
// attack-soak lengthens the stream via SERO_ATTACK_SOAK_OPS.
func TestFalsePositiveSoak(t *testing.T) {
	ops := 2048
	if raceDetector {
		ops = 512
	}
	if env := os.Getenv("SERO_ATTACK_SOAK_OPS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad SERO_ATTACK_SOAK_OPS %q", env)
		}
		ops = n
	}
	on := runSoak(t, true, ops)
	off := runSoak(t, false, ops)

	if on.findings != 0 {
		t.Fatalf("audit reported %d findings on an untampered system", on.findings)
	}
	if on.stats.AuditLinesChecked == 0 {
		t.Fatal("soak audit checked no lines")
	}
	if on.stats.AuditRounds == 0 {
		t.Fatal("soak audit completed no rounds")
	}
	if on.virt != off.virt {
		t.Fatalf("virtual time diverges: audit-on %v, audit-off %v", on.virt, off.virt)
	}
	if on.digest != off.digest {
		t.Fatal("file contents diverge between audit-on and audit-off runs")
	}
}

// campaignRecorder taps the committed magnetic write stream (the
// attack-side twin of the lfs crash harness).
type campaignRecorder struct {
	mu     sync.Mutex
	writes []struct {
		pba  uint64
		data []byte
	}
}

func (r *campaignRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.writes)
}

// TestCampaignCrashSurvival runs a live campaign while recording the
// committed write stream, then crashes it at sampled block boundaries:
// every crash image must mount, every write acked before the boundary
// must read back intact, and a full audit drive over the remounted FS
// must report zero findings (the raw tamperings are not part of the
// replayed honest write stream, so a clean reconstruction must stay
// clean — no spurious findings from crash debris).
func TestCampaignCrashSurvival(t *testing.T) {
	sessions := 3
	ops := 192
	if raceDetector {
		sessions, ops = 2, 96
	}
	h, err := NewQuietHarness(QuietConfig{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs := h.FS()
	dev := fs.Device()
	img := dev.SaveImage() // post-preparation baseline

	rec := &campaignRecorder{}
	dev.SetWriteObserver(func(pba uint64, data []byte) {
		cp := append([]byte(nil), data...)
		rec.mu.Lock()
		rec.writes = append(rec.writes, struct {
			pba  uint64
			data []byte
		}{pba, cp})
		rec.mu.Unlock()
	})

	// Live phase: sessions apply mixes and land acked files while the
	// auditor sweeps and attacks tamper the victim.
	ackIdx := make([]int, sessions)
	ackData := make([][]byte, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mix := workload.DefaultMix(8, ops)
			mix.Prefix = fmt.Sprintf("cc%d", i)
			stream := mix.Generate(sim.NewRNG(uint64(500 + i)))
			if _, err := workload.Apply(fs, stream); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			content := bytes.Repeat([]byte{byte(0xA0 + i)}, 2*device.DataBytes)
			name := fmt.Sprintf("acked-s%d", i)
			ino, err := fs.Create(name, uint8(i%4))
			if err == nil {
				err = fs.WriteFile(ino, content)
			}
			if err == nil {
				err = fs.Sync()
			}
			if err != nil {
				errs <- fmt.Errorf("session %d ack: %w", i, err)
				return
			}
			// Every write of the ack is at or before this index, so any
			// crash at a later boundary must preserve the file.
			ackIdx[i] = rec.count()
			ackData[i] = content
		}(i)
	}
	stopAudit := make(chan struct{})
	var aw sync.WaitGroup
	aw.Add(1)
	go func() {
		defer aw.Done()
		for {
			select {
			case <-stopAudit:
				return
			default:
			}
			fs.AuditStep(2)
			runtime.Gosched()
		}
	}()
	h.AttackMWBData()
	h.AttackEWBHash()
	wg.Wait()
	close(stopAudit)
	aw.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	dev.SetWriteObserver(nil)

	total := rec.count()
	if total == 0 {
		t.Fatal("campaign recorded no writes")
	}
	samples := 12
	if raceDetector {
		samples = 5
	}
	stride := total / samples
	if stride < 1 {
		stride = 1
	}
	p := fs.Params()
	for k := 0; k <= total; k += stride {
		crashed, _, err := device.LoadImage(img, device.DefaultParams(0))
		if err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		for _, w := range rec.writes[:k] {
			if werr := crashed.WriteBlocks(w.pba, [][]byte{w.data}); werr != nil {
				rec.mu.Unlock()
				t.Fatalf("replaying write to %d: %v", w.pba, werr)
			}
		}
		rec.mu.Unlock()
		mounted, merr := lfs.Mount(crashed, p)
		if merr != nil {
			t.Fatalf("crash at write %d/%d: mount failed: %v", k, total, merr)
		}
		for i := range ackIdx {
			if ackData[i] == nil || ackIdx[i] == 0 || ackIdx[i] > k {
				continue
			}
			name := fmt.Sprintf("acked-s%d", i)
			ino, lerr := mounted.Lookup(name)
			var got []byte
			if lerr == nil {
				got, lerr = mounted.ReadFile(ino)
			}
			if lerr != nil || !bytes.Equal(got, ackData[i]) {
				t.Fatalf("crash at write %d/%d: acked file %s lost or corrupted: %v", k, total, name, lerr)
			}
		}
		// A full audit sweep of the remount: never wedges, never a
		// spurious finding on the clean reconstruction.
		lines := len(crashed.Lines())
		if lines > 0 {
			bound := 2 * ((lines + 1) / 2)
			for s := 0; s < bound; s++ {
				mounted.AuditStep(2)
			}
		}
		if n := len(mounted.AuditFindings()); n != 0 {
			t.Fatalf("crash at write %d/%d: %d spurious audit findings on clean reconstruction", k, total, n)
		}
	}
}
