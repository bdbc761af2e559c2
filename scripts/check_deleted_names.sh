#!/usr/bin/env bash
# Deleted-names check: names that went with a collapsed code path must not
# come back. Each row of the table below is one collapse: a name, a scope and
# an extended regular expression searched over the repository's Go files.
# Scopes: all (every .go file), nontest (no _test.go files) and
# nontest-nobench (neither _test.go files nor the bench/ module). Prints every
# offending line and exits non-zero when a row matches. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
check() { # check NAME SCOPE PATTERN
    local name=$1 scope=$2 pattern=$3
    local args=(-rnE "$pattern" --include='*.go')
    case $scope in
        all) ;;
        nontest) args+=(--exclude='*_test.go') ;;
        nontest-nobench) args+=(--exclude='*_test.go' --exclude-dir=bench) ;;
        *) echo "check_deleted_names: unknown scope $scope" >&2; exit 2 ;;
    esac
    local hits
    if hits=$(grep "${args[@]}" .); then
        echo "FAIL: $name"
        printf '%s\n' "$hits"
        fail=1
    fi
}

# one probe path per function family: the opt-out knobs stay deleted
check 'no twin-path knobs' all \
    'NoBatch|NoPool|NoArena|WithoutBatching|WithoutPooling|WithProfile'
# one engine, one tree shape: the competitors are paperbench-only baselines
# and no tuner picks (f, k)
check 'no engine or tuner knobs' all \
    'WithEngine|DefaultEngine|engineFor|EngineNaive|EngineIncremental|EngineOSTree|EngineSegmentTree|mst/tune|Tuning'
# one payload width: every merge sort tree is a 32-bit tree
check 'no second payload width' all \
    'Force64|\[P payload\]|tree\[int64\]|topCodes|lowerBoundFromOVC|internal/stream'
# one tree form: no spill forest, no on-disk tree record
check 'one tree form' nontest-nobench \
    'SpillRows|spill-rows|ReadTree|flagChunked|chunkedCountBelow'
# snapshots materialise as span copies: the per-row builder and its
# row -> slot map live on only as the test oracle
check 'no per-row materialise' nontest \
    'slotOfBase|addFromColumn'
# one probe path in mst: every query goes through a batched kernel, so the
# single-query descents stay deleted (\b keeps longer names such as
# DistinctCountRange out of the match)
check 'one probe path' nontest-nobench \
    '\bcountBelow\(|\bselectRanges\(|\bSelectKthRanges\(|\bSelectKth\(|\bCountRange\(|\.AggBelow\(|\bCountDistinctBelow\('

exit $fail
