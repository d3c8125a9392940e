#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload switch --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache lands in $CARGO_TARGET_DIR (default
# .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
