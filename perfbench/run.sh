#!/usr/bin/env bash
# run.sh builds the serving stack (makespand, makespan-lb) and the CLIs
# that derive reference answers from this checkout's source, builds the
# benchmark program, and runs one workload:
#
#   bash perfbench/run.sh --workload mixed-serve --seed 1 --seconds 30 --trace 0
#
# Everything the build writes, Go's caches included, stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/makespand" ]; then
    echo "perfbench: $root holds no makespan source tree to build" >&2
    exit 2
fi
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/makespand ./cmd/makespan-lb ./cmd/makespan ./cmd/schedsim ./cmd/experiments
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
