#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#   bash fourbitbench/run.sh --workload fig6-mirage --seed 1 --seconds 20 --trace 0
# Everything the build and the runs leave behind goes to .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
export GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$here" && go build -o "$out/fourbitbench" .)
# The commit, when the checkout is a git repository (git stops at it).
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/fourbitbench" --root "$root" --commit "$commit" "$@"
