#!/usr/bin/env bash
# Builds the benchmark and the cdpfd daemon from this checkout, then runs the
# benchmark with the given arguments. Every build product, cache and run
# output stays under .bench_build/ at the checkout root.
#
#   bash bench/run.sh                               # all workloads, seed 1
#   bash bench/run.sh --workload fig56 --seed 7 --seconds 20 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config/go/telemetry"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# With telemetry on or local, the go command forks a detached upload process
# the first time it runs under a fresh config directory, and that process
# outlives the build. Turning telemetry off keeps every process this script
# starts inside its own lifetime.
printf 'off\n' >"$out/config/go/telemetry/mode"

if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cdpfd" ]]; then
	echo "bench/run.sh: $root holds no cdpfd sources to build" >&2
	exit 1
fi

go -C "$root" build -o "$out/bin/cdpfd" ./cmd/cdpfd
go -C "$root/bench" build -o "$out/bin/bench" .

cd "$root"
exec "$out/bin/bench" "$@"
