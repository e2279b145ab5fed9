#!/usr/bin/env bash
# Builds csrserver and the benchmark harness from this checkout's sources,
# then runs the harness. Everything the build and the run write stays
# under .bench_build/ in the checkout root.
#
#   bash perfbench/run.sh --workload zipf-topk --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/csrserver" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/csrserver not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
go build -o "$out/bin/csrserver" ./cmd/csrserver
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/csrserver" -work "$out/work" "$@"
