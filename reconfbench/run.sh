#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash reconfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build artifacts and caches stay under
# $CARGO_TARGET_DIR (default .bench_build/); traced runs write their
# spans to .bench_build/spans/.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/reconfbench" && go build -o "$out/reconfbench" .)
exec "$out/reconfbench" "$@"
