# CI entry points. `make ci` is what a pipeline should run; the
# individual targets exist for local iteration.

GO ?= go

.PHONY: all build vet test race bench bench-serve bench-serve-quick benchcheck perfbench trace-smoke oracle attack-campaign attack-soak degraded-campaign fuzz docs ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency suite (device stripes, parallel audit/scan, the core
# stress test, the background cleaner) must stay clean under the race
# detector.
race:
	$(GO) test -race ./...

# Audit fan-out family, the write-path batching/cleaner fan-out
# family, the sync/replay durability family, the append-during-clean
# lock-scoping family, plus the paper's figure/experiment benchmarks.
bench:
	$(GO) test -run '^$$' -bench BenchmarkAudit -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkFSAppend|BenchmarkClean|BenchmarkSync|BenchmarkMountReplay|BenchmarkAppendDuringClean' -benchtime 1x ./internal/lfs
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The serving-tier macro-benchmark: replays the zipfian read-mostly mix
# from 1, 4 and 16 concurrent sessions over a 100k-file namespace and
# records the trajectory (per-op virtual-time latency percentiles,
# throughput, full reproduction config) to BENCH_serving.json. Takes
# minutes of wall clock — run it when the write/read path changes, then
# commit the refreshed JSON; `make ci` only re-checks the committed
# file's schema. The main record sweeps member-device widths 1 and 4
# (one parity member) at every session count, so the striped array's
# throughput trajectory is part of the committed record; compare widths
# with `benchcheck -diff`. The second run records the raw-device
# trajectory with the incremental auditor armed (and a frozen heat
# population for it to sweep) to BENCH_serving_audit.json, so the
# audit-on serving tax is part of the recorded record.
bench-serve:
	$(GO) run ./cmd/serocli bench-serve -devices 1,4 -parity 1 -out BENCH_serving.json
	$(GO) run ./cmd/serocli bench-serve -audit-every 64 -heat-files 64 -out BENCH_serving_audit.json

# A seconds-long smoke pass of the serving benchmark: a small
# namespace and op budget at 1 and 4 sessions, validated and then
# discarded. Run by `make ci` so the whole bench-serve pipeline — mix
# generation, session replay, amortized-sync accounting, report
# validation — is exercised on every change without the minutes-long
# full run. SMOKE_DIR holds this smoke's report and trace-smoke's
# trace.
SMOKE_DIR ?= /tmp/sero-smoke
bench-serve-quick:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/serocli bench-serve -files 2048 -ops 4096 -sessions 1,4 -out $(SMOKE_DIR)/bench-quick.json
	$(GO) run ./tools/benchcheck $(SMOKE_DIR)/bench-quick.json

# Schema gate over the committed trajectory files.
benchcheck:
	$(GO) run ./tools/benchcheck BENCH_serving.json BENCH_serving_audit.json

# The repository benchmark (perfbench/, BENCHMARK.json) is a nested
# module, so `go build ./...` never compiles it: vet and build it here
# so a signature change in device, lfs or workload cannot break the
# benchmark unnoticed. Then run each workload once, briefly and traced
# (the per-layer decorators included), and fail on a non-zero exit or
# a result line without "correct":true. PERFBENCH_DIR holds the build
# cache, each workload's result line and its report.
PERFBENCH_DIR ?= /tmp/sero-perfbench
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .
	mkdir -p $(PERFBENCH_DIR)
	@for w in serve-zipf-2s churn-clean-1s seal-audit-array4; do \
		echo "perfbench --workload $$w --seed 1 --seconds 1 --trace 1"; \
		CARGO_TARGET_DIR=$(PERFBENCH_DIR) bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 \
			> $(PERFBENCH_DIR)/$$w.out 2> $(PERFBENCH_DIR)/$$w.log \
			|| { cat $(PERFBENCH_DIR)/$$w.log; echo "perfbench $$w: non-zero exit"; exit 1; }; \
		tail -n 1 $(PERFBENCH_DIR)/$$w.out | grep -q '"correct":true' \
			|| { cat $(PERFBENCH_DIR)/$$w.log; echo "perfbench $$w: not correct"; exit 1; }; \
	done

# Observability smoke: a small traced serving run exported as Chrome
# trace_event JSON, validated by tracecheck (Perfetto-loadable shape,
# at least one span). Run by `make ci` so the span plumbing — ring
# buffer, session attribution, Chrome export — is exercised on every
# change.
trace-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/serocli trace -files 256 -ops 1024 -sessions 2 -out $(SMOKE_DIR)/trace-smoke.json
	$(GO) run ./tools/tracecheck $(SMOKE_DIR)/trace-smoke.json

# The byte-for-byte oracle a refactor must keep: the paper's figures
# and experiments (serosim -seed 1), a one-session trace, a small
# one-session serving run and one full-size (100,000-file) one-session
# serving run on a one-member array — the trajectory's own scale, so a
# namespace-sized cost or drift cannot hide behind the small inputs —
# each hashed and checked against testdata/oracle.sha256 (recorded on
# linux/amd64). A change that moves them on purpose re-records the
# digests from the same four outputs. ORACLE_DIR holds the outputs.
# First, the per-layer byte pins (the Test*Oracle tests: the sector
# code, the medium, electrical reads and the log layout) run uncached.
ORACLE_DIR ?= /tmp/sero-oracle
oracle:
	$(GO) test -count=1 -run 'Oracle$$' ./internal/...
	rm -rf $(ORACLE_DIR) && mkdir -p $(ORACLE_DIR)
	$(GO) run ./cmd/serosim -seed 1 > $(ORACLE_DIR)/serosim.txt
	$(GO) run ./cmd/serocli trace -files 256 -ops 1024 -sessions 1 -out $(ORACLE_DIR)/trace.json > /dev/null
	$(GO) run ./cmd/serocli bench-serve -files 2048 -ops 4096 -sessions 1 -out $(ORACLE_DIR)/bench-serve.json > /dev/null
	$(GO) run ./cmd/serocli bench-serve -sessions 1 -devices 1 -out $(ORACLE_DIR)/bench-serve-100k.json > /dev/null
	cd $(ORACLE_DIR) && sha256sum -c $(CURDIR)/testdata/oracle.sha256

# The concurrent attack campaign suite under the race detector: the §5
# tampering matrix raced against live workload sessions, the
# cooperative cleaner and incremental audit rounds, the
# detection-latency bound property test, the false-positive soak, and
# the audit-armed crash sweeps. Iteration counts scale down under the
# race build tag (the raceDetector const pattern), so this stays a
# minutes-not-hours gate in `make ci`.
attack-campaign:
	$(GO) test -race -run 'TestLiveCampaignDetectsEverything|TestDetectionLatencyBound|TestFalsePositiveSoak|TestCampaignCrashSurvival' ./internal/attack
	$(GO) test -race -run 'TestCrashMidAuditRoundCleanMount' ./internal/lfs

# The long soak variant: the same no-tampering live mix (traffic +
# background clean + audit rounds) with an 8x op budget, still
# asserting zero findings and byte-identical audit-on/audit-off
# virtual time. Not part of `make ci`; run it when the audit engine or
# the cleaner changes.
attack-soak:
	SERO_ATTACK_SOAK_OPS=16384 $(GO) test -run TestFalsePositiveSoak -count=1 -timeout 30m ./internal/attack

# The striped-array resilience suite under the race detector: what the
# array knows of a failed member's heated lines and the spare sled a
# member rebuild commissions, crash consistency at every replay
# boundary with and without a member loss, cross-width
# mount-fingerprint equivalence, the auditor's repair-from-parity arm,
# the striped serving runs (width scaling, degraded reads, width-1
# virtual-time identity), and the serofsck array modes end to end —
# parity-group scan with per-member findings, online self-healing over
# a 3/1 array, and online verification over a degraded 4/1 array.
degraded-campaign:
	$(GO) test -race -run 'TestFailedMemberLines|TestFailedRebuildKeepsMemberLines|TestRepairedMemberKeepsTracerAndConcurrency' ./internal/array
	$(GO) test -race -run 'TestCrashConsistencyStripedEveryBoundary|TestAuditorRepairsTamperFromParity|TestMountFingerprintEqualAcrossWidths' ./internal/lfs
	$(GO) test -race -run 'TestRunStriped|TestRunWidth1MatchesRawDevice' ./internal/serve
	$(GO) test -race -run 'TestRunArrayParityGroupScan|TestOnlineVerifyArray' ./cmd/serofsck

# Short fuzz passes over the image loader (the §5.2 trust boundary),
# the file-system op stream (checkpoint/acked-data durability) and
# its variant with heated files on heat-aware and heat-oblivious
# placement, the roll-forward recovery path (random ops + random crash
# points; mount must never error on a torn summary tail), and the
# striped variant of
# the replay fuzzer (same grammar over 1/2/4-member arrays, plus a
# member loss after every crash when parity covers it), plus the
# sector code against its byte-wise reference (every parity 1–64 and
# interleave 1–5: identical encodes, the remainder check agreeing with
# the syndromes, identical decodes), plus the medium's block image and
# ranged electrical reads against their per-dot references (identical
# bits, verdicts, stored state and next noise draw, with and without
# the noise draws a healthy dot may skip), plus the device's proven
# reads against a full decode of a raw image under every raw mutator.
# -fuzzminimizetime 100x caps the minimization of each new input, so
# a target spends its 20 s fuzzing rather than minimizing.
fuzz:
	$(GO) test -run FuzzLoadImage -fuzz FuzzLoadImage -fuzztime 20s -fuzzminimizetime 100x .
	$(GO) test -run FuzzFSOps -fuzz FuzzFSOps -fuzztime 20s -fuzzminimizetime 100x ./internal/lfs
	$(GO) test -run FuzzFSHeatOps -fuzz FuzzFSHeatOps -fuzztime 20s -fuzzminimizetime 100x ./internal/lfs
	$(GO) test -run 'FuzzReplay$$' -fuzz 'FuzzReplay$$' -fuzztime 20s -fuzzminimizetime 100x ./internal/lfs
	$(GO) test -run FuzzReplayStriped -fuzz FuzzReplayStriped -fuzztime 20s -fuzzminimizetime 100x ./internal/lfs
	$(GO) test -run FuzzCodecMatchesReference -fuzz FuzzCodecMatchesReference -fuzztime 20s -fuzzminimizetime 100x ./internal/ecc
	$(GO) test -run FuzzMRBImage -fuzz FuzzMRBImage -fuzztime 20s -fuzzminimizetime 100x ./internal/medium
	$(GO) test -run FuzzERBRange -fuzz FuzzERBRange -fuzztime 20s -fuzzminimizetime 100x ./internal/medium
	$(GO) test -run FuzzReadProof -fuzz FuzzReadProof -fuzztime 20s -fuzzminimizetime 100x ./internal/device

# Documentation gate: formatting, vet, and a mechanical check that
# every exported identifier in the public API (package sero), the
# file-system core (internal/lfs), the serving tier (internal/serve),
# the tracing plane (internal/trace), the store/audit core
# (internal/core), the attack harness (internal/attack), the virtual
# clock (internal/sim), the block device (internal/device), the
# striped array (internal/array), the dot medium (internal/medium), the
# sector code (internal/ecc), the bit codings (internal/manchester), the
# op-stream generators (internal/workload), the multilayer and
# diffraction physics (internal/physics), the probe-array model
# (internal/probe) and the paper's comparisons and applications (the
# update-in-place FFS internal/ffs, the §2 WORM baselines
# internal/worm, the §8 retention layer internal/retention, the Venti
# archive internal/venti and the fossilized index internal/fossil) and
# the figure and experiment drivers (internal/experiments) carries a
# doc comment, so `go doc` reads as a complete reference.
docs: vet
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./tools/doccheck . ./internal/lfs ./internal/serve ./internal/trace ./internal/core ./internal/attack ./internal/sim ./internal/device ./internal/array ./internal/medium ./internal/ecc ./internal/manchester ./internal/workload ./internal/physics ./internal/probe ./internal/ffs ./internal/worm ./internal/retention ./internal/venti ./internal/fossil ./internal/experiments

# vet is its own step (docs depends on it, so it runs once) so a vet
# failure is named in the CI log. race runs the full -race suite;
# attack-campaign and degraded-campaign narrow in on the concurrent
# campaign and array-resilience tests for the same reason.
ci: build vet test race docs benchcheck perfbench bench-serve-quick trace-smoke oracle attack-campaign degraded-campaign
