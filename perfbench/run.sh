#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it
# with the given arguments (--workload, --seed, --seconds, --trace).
# Everything the Go toolchain writes — build cache, binary, span dumps —
# stays under the build directory inside the checkout
# ($CARGO_TARGET_DIR, default .bench_build). Outside a full checkout the
# build fails, so the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
out="$out/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
