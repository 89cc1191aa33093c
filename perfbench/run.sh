#!/usr/bin/env bash
# Builds xicd and the load generator from this checkout into .bench_build/
# at the checkout root, then runs the load generator with the arguments
# given, e.g.:
#
#   bash perfbench/run.sh --workload decide --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/xicd ]]; then
	echo "perfbench: no xic source tree (go.mod, cmd/xicd) at $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# The go command's caches, temporary files and user configuration (its
# telemetry counters among them) all go under .bench_build/ too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# With telemetry on, a go command may fork a detached sidecar process that
# outlives it. "go telemetry off" itself never starts one.
go telemetry off
go build -o "$out/xicd" ./cmd/xicd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -xicd "$out/xicd" -out "$out" "$@"
