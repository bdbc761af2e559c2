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
# a partition is stamped by its own rows (newest row epoch, row count): no
# store of superseded row images and no departure log feed the stamp
check 'stamp by own rows' all \
    'ghostState|appendFromStore|RemovedEpochs|GhostEpochs|\.Ghosts\b'
# one probe path in mst: every query goes through a batched kernel, so the
# single-query descents stay deleted (\b keeps longer names such as
# DistinctCountRange out of the match)
check 'one probe path' nontest-nobench \
    '\bcountBelow\(|\bselectRanges\(|\bSelectKthRanges\(|\bSelectKth\(|\bCountRange\(|\.AggBelow\(|\bCountDistinctBelow\('
# four analyzers, one lint driver: the analyzers with no catch, the vettool
# protocol, the SARIF writer and the standalone runners stay deleted;
# TestRepoClean is the gate
check 'four analyzers, one lint driver' all \
    'analysis/(nopanic|sortstability|framebounds|spanend|ctxflow)|RunVet|WriteSARIF|VetConfig|RunStandalone|CollectStandalone'
# one form enum: a structure names its form (mst.Form: leaves, sliding,
# full) instead of a leaf-only flag, and the build span's form attribute
# replaces the 0/1 leaf_only count
check 'one form enum' all \
    'leafOnly +bool|"leaf_only"'
# one structure identity: core declares what each function builds, and the
# cache key, the plan DAG, the explain text and cache invalidation all read
# that declaration instead of keeping their own copies
check 'one structure identity' nontest-nobench \
    'classOf|functionPlan|sqlparse\.Explain|InvalidateEpochsBelow|InvalidatePrefix|parseEpochComponent|",l3"'
# one form per surface: windowcli takes only SQL, windowd reports status
# only through /v1/metrics and /v1/datasets, the wire types are declared only
# in api, the run-local cache is a treecache and an arena is one slab
check 'one form per surface' nontest-nobench \
    'handleStatusz|renderRequests|Statusz\(|runFlags|buildFunc\(|ingestStatusResponse|explainResponse|localCache|ExplainPlan|\.Checkpoint\('
# counters declared where counted: every process-wide event counter is an
# obs.Default family declared in the package that counts it, so the
# Snapshot structs, their atomics and the server's per-field scrape
# closures stay deleted
check 'counters declared where counted' all \
    'BatchStat|BatchSnapshot|BatchFamilyStat|BatchFamilySnapshot|batchQueriesTotal|batchDedupHitsTotal|batchQueriesByFam|batchDedupByFam|batchLeavesByFam|batchDiffsByFam|CounterSnapshot|plan\.Snapshot\(|counters\.Queries|delta\.Counters\(|delta\.Stats\b|func Counters\(|ingest\.Stats\b|ingest\.Snapshot\(|func Snapshot\(\) Stats|ArenaStats|ArenaSnapshot|arenaCounters|CacheStats\(|NewCounterFunc\("windowd_(mst|plan|ingest|delta|arena)_'
# Algorithm 1 without a second sort: occurrence links come from one hashed
# pass (distinct aggregates) or direct rank addressing (DENSE_RANK), so the
# sort-then-link walk and its span stay deleted
check 'algorithm 1 without a second sort' all \
    'linkOccurrences|preprocess: sort hashes'
# one cache-key form: keys name content only (partitions by value, one sort
# tag, no per-epoch entries), so the epoch matcher, the per-epoch tags and
# their caching helpers stay deleted and core.InScope is the one
# invalidation rule
check 'one cache-key form' all \
    'StaleEpochs|tagMergedSort|tagFrozenSort|tagStamps|cachedStamps|deltaStamps|deltaSortIndices|stampPartitions|"merged-sort"|"frozen-sort"'
# one run path: every run shares structures through a cache (RunShared
# gives a cacheless run its own), the library's one configuration form is
# Options, core borrows scratch straight from the arena pools and segment
# takes core.TreeCache; nontest because the options tests keep their names
check 'one run path' nontest \
    'cacheActive|func RunWith|RunSQLWith\(|NewOptions\(|WithoutSharedPlan\(|ExplainSQL|type Option func|\) (get|put)(Int32s|Int64s|Uint64s|Bools)\(|segment\.Cache\b'
# one position width into the tree: core hands its row positions to mst as
# int32 and the tree keeps them as level 0, so the pooled int64 permutation
# copy stays deleted; a worker cap travels in the run's context, not an
# Options field (\b keeps TestRowNumbersAndPermutationInverse out)
check 'one position width into the tree' all \
    '\bPermutationIn\b|\bWorkers:|opt\.Workers'
# one oracle: every differential test checks answers against
# internal/oracle, which shares no code with the evaluator, so core's
# test-only reference rig and its three hand-written bound functions stay
# deleted
check 'one oracle' all \
    'refEvaluator|refValue\b|refRowsBounds|refGroupsBounds|refRangeBounds'
# one lattice: the randomized answer rigs of core, delta, plan and segment
# run on internal/lattice's one configuration matrix, with its one table
# generator and function list and the oracle's two comparisons, so the
# per-package sweeps, function lists and column comparisons stay deleted
check 'one lattice' all \
    'referenceSweep|requireColumnsIdentical|assertColumnsIdentical|randValidFrame|\bcolumnsEqual\b|\bapproxEqual\b|func allFuncs|func allFuncSpecs|equivalenceQueries'
# one sort engine: every ORDER BY, PARTITION BY, delta dirty run and
# function-order sort takes core's key words, a STRING key as the dense rank
# of its string, so the comparator merge sort and its fork stay deleted
check 'one sort engine' all \
    'sortutil\.SortFunc|SortIndicesContext|radixSortable|MergeSplit|MergeInto|splitMerge|mergePieces'
# one tree state: every merge level of a full tree carries its samples and
# its origin stripe, so the stripe-less descent and its option stay deleted;
# Figure 2's searched tree is paperbench's segtree.SortedTree
check 'one tree state' all \
    'NoCascading|searchCounts|insertionSort\(|no-cascading'
# one column type: a function's output, a cached per-partition result, a
# decoded segment column and the delta overlay's row images are all
# core.Columns, so the look-alike typed buffers stay deleted
check 'one column type' all \
    'outBuilder|cachedResult|colData|colBuf|emptyStore'
# one structure per reduction: LEAD/LAG count on ROW_NUMBER's rank-unique
# tree, and AVG is the float SUM's fold over its count, so the row-number
# array of its own and the (sum, count) state stay deleted
check 'one structure per reduction' all \
    'tagRowno|cachedRowno|avgState'
# one sum arithmetic: every SUM and AVG is a sum of wrapping int64 lanes,
# exact or INT64, so the float fold order — the agg kernel's take list and
# ordered fold, the float-only tree builder, the always-descend rule — and
# the oracle's tolerance stay deleted
check 'one sum arithmetic' all \
    'takeStride|takeCnt|mergeTree|treeBuild|leafFold|oracle\.Near'

exit $fail
