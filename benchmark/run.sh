#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload line --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Every build artefact (binary, Go
# build cache, Go home) stays under .bench_build/ in the checkout, and the
# toolchain is pinned to the local one, so nothing is fetched or written
# elsewhere. Without the simulator sources beside it the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/teleadjust-bench" .)
exec "$out/teleadjust-bench" "$@"
