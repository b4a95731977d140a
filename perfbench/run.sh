#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload explore-full --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, config,
# temporary files, the binary) stays under .bench_build at the root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0 GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
