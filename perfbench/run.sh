#!/usr/bin/env bash
# Builds the benchmark harness and the warplda-serve binary from this
# checkout, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-heavy --seed 1 --seconds 20 --trace 0
#
# Build cache, binaries and run files stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The go command's caches, GOPATH and its config directory (telemetry
# counters) all stay in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse --short=12 HEAD)
fi
(
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/warplda-serve" warplda/cmd/warplda-serve
) >&2
exec "$out/bin/perfbench" -serve-bin "$out/bin/warplda-serve" -work "$out/work" -commit "$commit" "$@"
