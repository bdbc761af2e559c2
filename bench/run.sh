#!/usr/bin/env bash
# Builds windowbench and runs it from the root of the checkout this script is
# in. The Go build cache, module cache and temp directory are kept under
# .bench_build in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$bench")"
work="$repo/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/gomodcache" "$work/gotmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$bench" && go build -o "$work/bin/windowbench" .)
exec "$work/bin/windowbench" -repo "$repo" -work "$work" "$@"
