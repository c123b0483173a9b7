package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"sero/internal/array"
	"sero/internal/device"
	"sero/internal/lfs"
	"sero/internal/medium"
	"sero/internal/sim"
	"sero/internal/trace"
	"sero/internal/workload"
)

// Op kinds the sessions replay, in report order.
var mixKinds = []workload.OpKind{
	workload.OpCreate, workload.OpWrite, workload.OpRead,
	workload.OpRename, workload.OpDelete, workload.OpSync,
}

// failures counts failed attempts and keeps the first few reasons.
type failures struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

// check counts one attempt; a non-nil err counts as a failure.
func (f *failures) check(err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted++
	if err == nil {
		return true
	}
	f.failed++
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, err.Error())
	}
	return false
}

// session is one closed-loop client's replay state. Only its own
// goroutine touches it while the measured phase runs; session 0 also
// carries the harness's seal and audit lane.
type session struct {
	id      int
	pop     []workload.Op
	ops     []workload.Op
	applier *workload.Applier
	model   model

	// Virtual-time latency samples per op kind (see rep.since).
	lat      map[workload.OpKind][]int64
	attempts map[workload.OpKind]int64
	errs     map[workload.OpKind]int64
	// Latency decomposition totals: lat = lock wait + own device + queue.
	totalNS, lockNS, deviceNS, queueNS int64
	// deviceOps counts ops that advanced some device clock, freeOps
	// those of them the shared clock did not see (the array clock
	// artifact: a lagging member's work is free until it catches up).
	deviceOps, freeOps int64
	// memReads counts reads that needed no device access; they are
	// left out of the read latency samples.
	memReads int64
	// Sync amortisation: buffered ops per kind since the last sync, and
	// each kind's apportioned share of sync latency.
	pending map[workload.OpKind]int64
	amort   map[workload.OpKind]int64
	// userBlocks counts blocks of user data written (mix appends and
	// evidence files).
	userBlocks int64
	// Traced repetitions only: virtual time of ops during which a
	// cleaning pass ran, and of syncs during which a checkpoint was
	// written.
	cleanStallNS int64
	ckptSyncs    []int64
}

func newSession(id int, pop, ops []workload.Op) *session {
	return &session{
		id: id, pop: pop, ops: ops, model: model{},
		lat:      map[workload.OpKind][]int64{},
		attempts: map[workload.OpKind]int64{},
		errs:     map[workload.OpKind]int64{},
		pending:  map[workload.OpKind]int64{},
		amort:    map[workload.OpKind]int64{},
	}
}

// rep is one repetition: set up a fresh device and FS, replay the
// measured phase, run the epilogue, close, mount and check.
type rep struct {
	sp     spec
	seed   uint64
	traced bool
	log    *spanLog // nil when untraced

	base   device.Dev
	arr    *array.Array
	dev    *timedDev
	clock  *sim.Clock
	params lfs.Params
	fs     *lfs.FS
	sess   []*session
	fail   failures

	// measuring is set once set-up ends: seals before it belong to the
	// pre-sealed population.
	measuring bool
	seals     int // seal sequences started, for naming
	sealed    []string
	sealNS    []int64
	// Audit rounds: shadow device time of each complete round, and of
	// the round in progress.
	roundNS  []int64
	curRound int64
	// auditLines counts lines checked by the harness's AuditStep calls.
	auditLines int64
	// blocksAlloc is the heap the device took, in bytes (traced only).
	blocksAlloc uint64
}

// repOut is everything one repetition measured.
type repOut struct {
	traced bool
	// e2e holds the end-to-end metrics, layer the per-layer ones.
	e2e, layer map[string]float64
	// virt lists the virtual-clock metrics that must repeat exactly on
	// one-session workloads.
	virt      map[string]float64
	attempted int64
	failed    int64
	reasons   []string
	// kinds counts each mix op kind's attempts and errors.
	kinds map[workload.OpKind][2]int64
	// cpu counts profile samples per layer (traced only).
	cpu map[string]int64
	// spans is the traced repetition's span log.
	spans *spanLog
}

// runRep executes one repetition. Set-up errors that leave nothing to
// measure are returned; everything else is counted as a failure in
// the output.
func runRep(sp spec, seed uint64, pop, mix [][]workload.Op, traced bool) (*repOut, error) {
	r := &rep{sp: sp, seed: seed, traced: traced}
	out := &repOut{traced: traced, e2e: map[string]float64{}, layer: map[string]float64{}, virt: map[string]float64{}}

	var prof bytes.Buffer
	var heap *heapSampler
	var gc0 gcSample
	if traced {
		r.log = newSpanLog(8*sp.ops + 1<<16)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
		heap = startHeapSampler()
		gc0 = readGC()
	}

	h0 := time.Now()
	if err := r.setup(pop, mix); err != nil {
		if traced {
			pprof.StopCPUProfile()
			heap.stop()
		}
		return nil, err
	}
	setup := time.Since(h0)

	// Measured phase.
	st0, dc0, os0 := r.fs.Stats(), r.dev.counts(), r.dev.Stats()
	var as0 array.Stats
	if r.arr != nil {
		as0 = r.arr.ArrayStats()
	}
	r.measuring = true
	if r.log != nil {
		r.dev.spans.Store(r.log)
	}
	v0 := r.clock.Now()
	m0 := time.Now()
	var wg sync.WaitGroup
	for _, s := range r.sess {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			r.serve(s)
		}(s)
	}
	wg.Wait()
	m1 := time.Now()
	v1 := r.clock.Now()
	st1 := r.fs.Stats()
	var live int
	for _, seg := range r.fs.Segments() {
		live += seg.LiveBlocks
	}
	out.layer["lfs.live_share"] = float64(live) / float64(r.dev.Blocks()-r.fs.Params().CheckpointBlocks)
	var as1 array.Stats
	if r.arr != nil {
		as1 = r.arr.ArrayStats()
	}

	r.epilogue()
	if r.sp.cleaner {
		// Checkpoints alternate between two slots and a mount reads
		// both; two final checkpoints leave the same state in each.
		for i := 0; i < 2; i++ {
			r.fail.check(wrap("final checkpoint", r.fs.Checkpoint()))
		}
	} else {
		r.fail.check(wrap("final sync", r.fs.Sync()))
	}
	r.fs.Close()
	st2 := r.fs.Stats()
	if traced {
		pprof.StopCPUProfile()
		out.cpu = map[string]int64{}
		if err := leafSamples(prof.Bytes(), out.cpu); err != nil {
			return nil, err
		}
	}

	mountNS, mounted := r.mount()
	r.dev.spans.Store(nil)
	dc2, os2 := r.dev.counts(), r.dev.Stats()
	if mounted != nil {
		r.check(mounted, st2)
		mounted.Close()
	}

	ops := 0
	for _, s := range r.sess {
		ops += len(s.ops)
	}
	out.e2e["setup_s"] = setup.Seconds()
	out.e2e["host_us_per_op"] = float64(m1.Sub(m0).Nanoseconds()) / 1e3 / float64(ops)
	r.virtualMetrics(out, ops, v1-v0, mountNS)
	r.layerMetrics(out, layerInputs{
		st0: st0, st1: st1, st2: st2, dc: dc2.sub(dc0),
		os: subOpStats(os2, os0), as0: as0, as1: as1, mounted: mounted,
	})
	if traced {
		gc1 := readGC()
		out.layer["host.gc_cpu_share"] = gc1.share(gc0)
		out.layer["host.heap_peak_mb"] = float64(heap.stop()) / (1 << 20)
		out.layer["host.bytes_per_device_block"] = float64(r.blocksAlloc) / float64(r.physicalBlocks())
		st, err := r.log.analyse(m0, m1)
		if err != nil {
			return nil, err
		}
		perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(ops) }
		out.layer["host.self_us_per_op.harness"] = perOp(st.harness)
		out.layer["host.self_us_per_op.lfs"] = perOp(st.lfs)
		out.layer["host.self_us_per_op.device"] = perOp(st.device)
		for _, k := range mixKinds {
			kt := st.byKind[k.String()]
			v := 0.0
			if kt.n > 0 {
				v = float64(kt.total.Nanoseconds()) / 1e3 / float64(kt.n)
			}
			out.layer["lfs."+k.String()+".host_us"] = v
		}
		// Audit host time covers every AuditStep call, epilogue included.
		all, err := r.log.analyse(r.log.epoch, time.Now())
		if err != nil {
			return nil, err
		}
		if r.auditLines > 0 {
			out.layer["audit.host_us_per_line"] = float64(all.byKind["audit"].total.Nanoseconds()) / 1e3 / float64(r.auditLines)
		} else {
			out.layer["audit.host_us_per_line"] = 0
		}
		out.spans = r.log
	}
	out.attempted, out.failed, out.reasons = r.fail.attempted, r.fail.failed, r.fail.reasons
	out.kinds = map[workload.OpKind][2]int64{}
	for _, s := range r.sess {
		for k, n := range s.attempts {
			c := out.kinds[k]
			out.kinds[k] = [2]int64{c[0] + n, c[1] + s.errs[k]}
		}
	}
	return out, nil
}

// physicalBlocks is the number of device blocks the run allocated
// (every member of an array).
func (r *rep) physicalBlocks() int {
	if r.arr != nil {
		return r.arr.Members() * r.arr.MemberDevice(0).Blocks()
	}
	return r.base.Blocks()
}

// setup allocates the device, formats the FS, replays the population
// phase and seals the pre-sealed population.
func (r *rep) setup(pop, mix [][]workload.Op) error {
	sp := r.sp
	var before runtime.MemStats
	if r.traced {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	blocks := sp.deviceBlocks
	if sp.members > 0 {
		// Each data member carries its share of the global capacity,
		// rounded up to whole stripe units.
		d, su := sp.members-sp.parity, sp.segmentBlocks
		blocks = (sp.deviceBlocks + d*su - 1) / (d * su) * su
	}
	dp := device.DefaultParams(blocks)
	mp := medium.DefaultParams(blocks, device.DotsPerBlock)
	mp.ReadNoiseSigma, mp.ResidualInPlaneSignal, mp.ThermalCrosstalk = 0, 0, 0
	dp.Medium = mp
	if sp.members > 0 {
		arr, err := array.Build(sp.members, dp, array.Params{StripeBlocks: sp.segmentBlocks, Parity: sp.parity})
		if err != nil {
			return fmt.Errorf("building array: %w", err)
		}
		r.arr, r.base = arr, arr
	} else {
		r.base = device.New(dp)
	}
	if r.traced {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		r.blocksAlloc = after.HeapAlloc - before.HeapAlloc
	}
	r.dev = &timedDev{Dev: r.base}
	r.clock = r.dev.Clock()
	r.params = lfs.Params{
		SegmentBlocks:    sp.segmentBlocks,
		CheckpointBlocks: checkpointBlocks(sp.files+sp.evidenceFiles(), sp.segmentBlocks),
		CheckpointEvery:  1 << 16,
		Concurrency:      sp.concurrency,
		HeatAware:        true,
		ReserveSegments:  2,
	}
	fs, err := lfs.New(r.dev, r.params)
	if err != nil {
		return fmt.Errorf("formatting: %w", err)
	}
	r.fs = fs
	if r.arr != nil && sp.parity > 0 && sp.auditEvery > 0 {
		fs.SetAuditRepairer(r.arr.RepairLine)
	}
	for i := range pop {
		s := newSession(i, pop[i], mix[i])
		s.applier = workload.NewApplier(fs)
		r.sess = append(r.sess, s)
	}
	// Seal first, on the fresh FS: the heat segments then sit at the
	// same addresses in every run, so audit rounds over these lines cost
	// the same apart from their number.
	if sp.preSeal > 0 {
		n := sp.preSeal + sim.NewRNG(r.seed^0x5EA15EA1).Intn(4)
		for i := 0; i < n; i++ {
			r.seal(r.sess[0])
		}
	}
	for _, s := range r.sess {
		for _, op := range s.pop {
			if r.fail.check(s.applier.Apply(op)) {
				s.model.apply(op)
			}
		}
	}
	return nil
}

// checkpointBlocks sizes the checkpoint region so each of its two
// slots holds the namespace (about 72 bytes per file), as the serving
// tier does.
func checkpointBlocks(files, segmentBlocks int) int {
	slot := (72*files + 16384) / device.DataBytes
	n := 1
	for n < 2*slot {
		n <<= 1
	}
	return max(n, 2*segmentBlocks)
}

// serve replays one session's measured ops; session 0 also runs the
// harness's seal and audit lane between its ops.
func (r *rep) serve(s *session) {
	var h0 time.Time
	if r.log != nil {
		h0 = time.Now()
	}
	for i, op := range s.ops {
		r.apply(s, op)
		if s.id != 0 {
			continue
		}
		if r.sp.sealEvery > 0 && (i+1)%r.sp.sealEvery == 0 {
			r.seal(s)
		}
		if r.sp.auditEvery > 0 && (i+1)%r.sp.auditEvery == 0 {
			r.auditStep(s, r.sp.auditBatch)
		}
	}
	if r.log != nil {
		r.log.emit("harness", "session", int32(s.id), h0, time.Since(h0))
	}
}

// apply runs one mix op and records its latency and decomposition.
func (r *rep) apply(s *session, op workload.Op) {
	task := &trace.Task{}
	var h0 time.Time
	var before lfs.Stats
	if r.log != nil {
		r.log.tasks.Store(task, int32(s.id))
		before = r.fs.Stats()
		h0 = time.Now()
	}
	mk := r.mark()
	err := s.applier.ApplyTraced(op, task)
	shared, lat := r.since(mk)
	if r.log != nil {
		r.log.emit("lfs", op.Kind.String(), int32(s.id), h0, time.Since(h0))
		r.log.tasks.Delete(task)
		after := r.fs.Stats()
		if after.CleanerPasses > before.CleanerPasses {
			s.cleanStallNS += lat
		}
		if op.Kind == workload.OpSync && after.Checkpoints > before.Checkpoints {
			s.ckptSyncs = append(s.ckptSyncs, lat)
		}
	}
	s.attempts[op.Kind]++
	if !r.fail.check(err) {
		s.errs[op.Kind]++
		return
	}
	s.model.apply(op)
	lw, dv := task.LockWaitNS(), task.DeviceNS()
	queue := shared - lw - dv
	if r.arr == nil && queue < 0 {
		// On one sled the three windows are disjoint, so a negative
		// queue means the decomposition is wrong.
		r.fail.check(fmt.Errorf("negative queue on %s: latency %d = lock %d + device %d + queue %d",
			op.Kind, shared, lw, dv, queue))
	}
	s.totalNS += shared
	s.lockNS += lw
	s.deviceNS += dv
	s.queueNS += queue
	if lat > 0 {
		s.deviceOps++
		if shared == 0 {
			s.freeOps++
		}
	}
	if op.Kind == workload.OpRead && lat == 0 {
		// Served from the write buffer, or past the end of an empty
		// file: no device work to time.
		s.memReads++
	} else {
		s.lat[op.Kind] = append(s.lat[op.Kind], lat)
	}
	switch op.Kind {
	case workload.OpSync:
		var covered int64
		for _, c := range s.pending {
			covered += c
		}
		for k, c := range s.pending {
			s.amort[k] += lat * c / covered
			delete(s.pending, k)
		}
	case workload.OpWrite:
		s.userBlocks += int64((len(op.Data) + device.DataBytes - 1) / device.DataBytes)
		s.pending[op.Kind]++
	case workload.OpCreate, workload.OpRename, workload.OpDelete:
		s.pending[op.Kind]++
	}
}

// call runs one harness→lfs call as a counted attempt, inside a span
// when traced, and returns its virtual latency (see since).
func (r *rep) call(s *session, name string, fn func() error) (int64, bool) {
	var h0 time.Time
	if r.log != nil {
		h0 = time.Now()
	}
	mk := r.mark()
	err := fn()
	_, lat := r.since(mk)
	if r.log != nil {
		r.log.emit("lfs", name, int32(s.id), h0, time.Since(h0))
	}
	return lat, r.fail.check(wrap(name, err))
}

// clockMark is a reading of the shared clock and of every array
// member's clock.
type clockMark struct {
	shared  time.Duration
	members []time.Duration
}

func (r *rep) mark() clockMark {
	m := clockMark{shared: r.clock.Now()}
	if r.arr != nil {
		m.members = make([]time.Duration, r.arr.Members())
		for i := range m.members {
			m.members[i] = r.arr.MemberDevice(i).Clock().Now()
		}
	}
	return m
}

// since returns the shared clock's advance since m and the call's
// latency. On a raw sled the two are the same. On an array the latency
// is the slowest member's advance: the shared clock only rises to the
// furthest member, so work on a lagging member does not move it and
// would read as free.
func (r *rep) since(m clockMark) (shared, lat int64) {
	shared = int64(r.clock.Now() - m.shared)
	if r.arr == nil {
		return shared, shared
	}
	for i, t := range m.members {
		lat = max(lat, int64(r.arr.MemberDevice(i).Clock().Now()-t))
	}
	return shared, lat
}

func wrap(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// seal writes a fresh two-block evidence file outside every session's
// namespace, syncs it and heats it: the Create + Write + Sync +
// HeatFile sequence seal_p50_vms times.
func (r *rep) seal(s *session) {
	i := r.seals
	r.seals++
	name := fmt.Sprintf("ev-%05d", i)
	rng := sim.NewRNG(r.seed ^ uint64(i+1)*0xD1B54A32D192ED03)
	class := uint8(i % r.sp.sealClasses)
	data := make([]byte, 2*device.DataBytes)
	for j := range data {
		data[j] = byte(rng.Uint64())
	}
	task := &trace.Task{}
	if r.log != nil {
		r.log.tasks.Store(task, int32(s.id))
		defer r.log.tasks.Delete(task)
	}
	var ino lfs.Ino
	steps := []struct {
		name string
		fn   func() error
	}{
		{"seal-create", func() (err error) {
			ino, err = r.fs.CreateTraced(task, name, class)
			return err
		}},
		{"seal-write", func() error { return r.fs.WriteTraced(task, ino, 0, data) }},
		{"seal-sync", func() error { return r.fs.SyncTraced(task) }},
		{"heat", func() error {
			_, err := r.fs.HeatFileTraced(task, name)
			return err
		}},
	}
	var total int64
	for _, st := range steps {
		lat, ok := r.call(s, st.name, st.fn)
		if !ok {
			return
		}
		total += lat
	}
	if r.measuring {
		r.sealNS = append(r.sealNS, total)
		s.userBlocks += 2
	}
	s.model[name] = data
	r.sealed = append(r.sealed, name)
}

// auditStep runs one incremental audit step and closes the round when
// the step drained it. It reports whether there was a line to check.
func (r *rep) auditStep(s *session, batch int) bool {
	var st lfs.AuditStats
	var more bool
	r.call(s, "audit", func() error {
		st, more = r.fs.AuditStep(batch)
		if len(st.Findings) > 0 {
			return fmt.Errorf("%d tamper findings", len(st.Findings))
		}
		return nil
	})
	r.auditLines += int64(st.Checked)
	r.curRound += int64(st.DeviceNS)
	if st.RoundComplete {
		r.roundNS = append(r.roundNS, r.curRound)
		r.curRound = 0
	}
	return more
}

// epilogue audits and seals after the measured phase on workloads
// whose mix has no seal or audit lane. The rounds sweep the pre-sealed
// population only, so their cost does not depend on where this run's
// later seals happened to land. On a cleaning workload a checkpoint
// first releases the space the cleaner freed during the mix, so the
// seals time sealing rather than the cleaner's backlog.
func (r *rep) epilogue() {
	if r.sp.tailSeals == 0 {
		return
	}
	s := r.sess[0]
	if r.sp.cleaner {
		r.call(s, "checkpoint", r.fs.Checkpoint)
	}
	for steps := 0; len(r.roundNS) < r.sp.tailRounds; steps++ {
		if steps > 1<<16 || !r.auditStep(s, 0) {
			r.fail.check(fmt.Errorf("audit made no round after %d steps", steps))
			break
		}
	}
	for i := 0; i < r.sp.tailSeals; i++ {
		r.seal(s)
	}
}

// mountTimes is how many times the closed medium is mounted. The first
// mount's cost includes the seek from wherever the last op left the
// sled; the median of three is the mount itself.
const mountTimes = 3

// mount mounts the closed FS from the medium mountTimes times (a mount
// only reads) and returns the median virtual time and the last mount.
func (r *rep) mount() (time.Duration, *lfs.FS) {
	var fs *lfs.FS
	var lats []int64
	for i := 0; i < mountTimes; i++ {
		lat, ok := r.call(r.sess[0], "mount", func() (err error) {
			fs, err = lfs.Mount(r.dev, r.params)
			return err
		})
		if !ok {
			return 0, nil
		}
		lats = append(lats, lat)
	}
	p50, _ := quantile(lats, 0.5)
	return time.Duration(p50), fs
}

// check compares the mounted FS with the model built from the op
// streams, verifies every sealed file, checks the journal and applies
// the workload guards. Every mismatch counts as a failure.
func (r *rep) check(fs *lfs.FS, st lfs.Stats) {
	want := model{}
	live := 0
	for _, s := range r.sess {
		for name, data := range s.model {
			want[name] = data
		}
		live += len(s.model)
	}
	live -= len(r.sealed)
	names := fs.Names()
	if len(names) != len(want) {
		r.fail.check(fmt.Errorf("mounted namespace has %d files, the model %d", len(names), len(want)))
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := want[name]; !ok {
			r.fail.check(fmt.Errorf("mounted namespace has unexpected file %s", name))
		}
	}
	for name, data := range want {
		r.fail.check(func() error {
			ino, err := fs.Lookup(name)
			if err != nil {
				return fmt.Errorf("read-back %s: %w", name, err)
			}
			got, err := fs.ReadFile(ino)
			if err != nil {
				return fmt.Errorf("read-back %s: %w", name, err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("read-back %s: %d bytes differ from the model's %d", name, len(got), len(data))
			}
			return nil
		}())
	}
	for _, name := range r.sealed {
		r.fail.check(func() error {
			reps, err := fs.VerifyFile(name)
			if err != nil {
				return fmt.Errorf("verify %s: %w", name, err)
			}
			for _, rp := range reps {
				if !rp.OK {
					return fmt.Errorf("verify %s: line %d tampered", name, rp.Line.Start)
				}
			}
			return nil
		}())
	}
	jr, err := lfs.CheckJournal(r.dev, r.params)
	if err == nil && !jr.Healthy() {
		err = fmt.Errorf("unhealthy journal:\n%s", jr.Summary())
	}
	r.fail.check(wrap("check journal", err))
	if st.AuditFindings > 0 {
		r.fail.check(fmt.Errorf("auditor reported %d findings", st.AuditFindings))
	}
	if live < r.sp.files/2 {
		r.fail.check(fmt.Errorf("live population fell to %d of %d files", live, r.sp.files))
	}
	if ran := st.CleanerPasses > 0; ran != r.sp.cleaner {
		r.fail.check(fmt.Errorf("cleaner ran %d passes; this workload requires it to run: %v", st.CleanerPasses, r.sp.cleaner))
	}
}

// model is the expected content of every live file, built from the ops
// that succeeded.
type model map[string][]byte

func (m model) apply(op workload.Op) {
	switch op.Kind {
	case workload.OpCreate:
		m[op.Name] = []byte{}
	case workload.OpWrite:
		b := m[op.Name]
		if end := int(op.Offset) + len(op.Data); end > len(b) {
			b = append(b, make([]byte, end-len(b))...)
		}
		copy(b[op.Offset:], op.Data)
		m[op.Name] = b
	case workload.OpRename:
		m[op.NewName] = m[op.Name]
		delete(m, op.Name)
	case workload.OpDelete:
		delete(m, op.Name)
	}
}
