#!/usr/bin/env bash
# End-to-end smoke test for windowd: build the daemon, load a CSV dataset,
# run a framed percentile query over HTTP twice, and assert the second run
# is served from the structure cache (hits up, no new builds). Also checks
# the /v1/metrics exposition (core series present and non-zero), the
# /v1/datasets listing, the windowcli -server and -trace modes, the
# out-of-core path (windowcli -ingest into a multi-segment
# directory, segmented answers byte-identical to in-RAM, source=dir
# registration, async server-side ingest with progress polling and ingest
# metrics), and graceful shutdown.
set -euo pipefail
cd "$(dirname "$0")/.."

go build -o "${TMPDIR:-/tmp}/windowd" ./cmd/windowd
go build -o "${TMPDIR:-/tmp}/windowcli" ./cmd/windowcli

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT

{
    echo "d,v"
    for i in $(seq 1 500); do
        printf '2024-%02d-%02d,%d\n' $(( (i % 12) + 1 )) $(( (i % 28) + 1 )) $(( (i * 37) % 100 ))
    done
} > "$tmp/data.csv"

port=$(( 20000 + RANDOM % 20000 ))
base="http://127.0.0.1:$port"
"${TMPDIR:-/tmp}/windowd" -addr "127.0.0.1:$port" -load t="$tmp/data.csv" 2> "$tmp/windowd.log" &
pid=$!

for _ in $(seq 1 100); do
    curl -sf "$base/v1/healthz" > /dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "$base/v1/healthz" > /dev/null || { echo "FAIL: windowd never became healthy"; cat "$tmp/windowd.log"; exit 1; }

query='{"sql":"select d, percentile_disc(0.5 order by v) over (order by d rows between 99 preceding and current row) as med from t"}'
r1=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$query")
r2=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$query")

num() { printf '%s' "$1" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2; }

echo "$r1" | grep -q '"med"'       || { echo "FAIL: first query missing med column: $r1"; exit 1; }
# No frame is empty, so no cell is NULL and the body carries no mask.
[[ "$r1" != *'"nulls"'* ]]         || { echo "FAIL: a result without a NULL sent \"nulls\": $r1"; exit 1; }
hits1=$(num "$r1" cache_hits); misses1=$(num "$r1" cache_misses)
hits2=$(num "$r2" cache_hits); misses2=$(num "$r2" cache_misses)
[ "$misses1" -gt 0 ]               || { echo "FAIL: cold query built nothing (misses=$misses1)"; exit 1; }
[ "$hits2" -gt "$hits1" ]          || { echo "FAIL: repeat query did not hit the cache (hits $hits1 -> $hits2)"; exit 1; }
[ "$misses2" -eq "$misses1" ]      || { echo "FAIL: repeat query rebuilt structures (misses $misses1 -> $misses2)"; exit 1; }

metrics=$(curl -sf "$base/v1/metrics")
printf '%s\n' "$metrics" | grep -q "^windowd_cache_events_total{event=\"hit\"} $hits2\$" \
    || { echo "FAIL: metrics do not report the cache hits ($hits2)"; exit 1; }
printf '%s\n' "$metrics" | grep -q '^windowd_mst_batch_queries ' || { echo "FAIL: metrics do not report batch kernel counters"; exit 1; }

# A default-frame query (RANGE UNBOUNDED..CURRENT ROW) over the repeating
# date column: peer rows share one frame, so the batched kernels' adjacent-
# row dedup must fire and show up in the metrics checked below.
dedup_query='{"sql":"select count(distinct v) over (order by d) as cd2 from t"}'
curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$dedup_query" | grep -q '"cd2"' \
    || { echo "FAIL: dedup query missing cd2 column"; exit 1; }

# Same frame shape through the batched aggregate and DENSE_RANK kernels, so
# the per-family batch metrics (agg, rank) fire alongside count/select.
fam_query='{"sql":"select sum(distinct v) over (order by d) as sdv, dense_rank() over (order by v) as drv from t"}'
curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$fam_query" | grep -q '"sdv"' \
    || { echo "FAIL: family query missing sdv column"; exit 1; }

# A sliding frame wider than mst.LeafRows (128 rows): its count and select
# queries go past the leaf rule, and the batched kernels answer most of them
# from the query before them, so both families' diff_queries series fire. A
# constant-offset ROWS frame no wider than a probe chunk builds the count
# tree in its sliding form, which the trace's build span names.
slide_query='{"sql":"select d, percentile_disc(0.25 order by v) over w as ps, count(distinct v) over w as cs from t window w as (order by d rows between 199 preceding and current row)","include_trace":true}'
slide=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$slide_query")
printf '%s' "$slide" | grep -q '"ps"' || { echo "FAIL: sliding query missing ps column"; exit 1; }
printf '%s' "$slide" | grep -q 'build merge sort tree[^\\]*form=slide' \
    || { echo "FAIL: sliding query's trace lacks a form=slide count build: $slide" | tail -c 3000; exit 1; }

# LEAD through its own batch family: per row a row-number count over the
# function-order prefix and a select of the row the offset names.
# The rows whose v is their frame's largest have no next value: those cells
# are NULL, so this body carries "nulls".
lead_query='{"sql":"select d, lead(v order by v) over (order by d rows between 99 preceding and 99 following) as ld from t"}'
lead=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$lead_query")
printf '%s' "$lead" | grep -q '"ld"'    || { echo "FAIL: lead query missing ld column"; exit 1; }
[[ "$lead" == *'"nulls"'* ]]            || { echo "FAIL: lead query's NULLs sent no \"nulls\""; exit 1; }

# Shared-plan optimizer: a multi-window statement (named-window inheritance
# included) must report the plan shape in its query stats, and /v1/explain
# must return the structured DAG alongside the legacy text plan.
shared_query='{"sql":"select count(distinct v) over w as cd, count(distinct v) over w2 as cdg, sum(v) over () as s from t window w as (order by d), w2 as (w groups between 2 preceding and current row)"}'
sp=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$shared_query")
printf '%s' "$sp" | grep -q '"cdg"' || { echo "FAIL: shared-plan query missing cdg column: $sp"; exit 1; }
[ "$(num "$sp" operators)" -gt 0 ]    || { echo "FAIL: query stats lack operators: $sp"; exit 1; }
[ "$(num "$sp" sorts_shared)" -gt 0 ] || { echo "FAIL: query stats lack sorts_shared: $sp"; exit 1; }
[ "$(num "$sp" trees_shared)" -gt 0 ] || { echo "FAIL: query stats lack trees_shared: $sp"; exit 1; }
explain=$(curl -sf "$base/v1/explain" -H 'Content-Type: application/json' -d "$shared_query")
printf '%s' "$explain" | grep -q '"plan":'       || { echo "FAIL: explain lost the legacy text plan: $explain"; exit 1; }
printf '%s' "$explain" | grep -q '"plan_dag":'   || { echo "FAIL: explain lacks the structured DAG: $explain"; exit 1; }
printf '%s' "$explain" | grep -q '"kind":"sort"' || { echo "FAIL: explain DAG lacks a sort node: $explain"; exit 1; }
printf '%s' "$explain" | grep -q '"shared_by":'  || { echo "FAIL: explain DAG lacks shared_by annotations: $explain"; exit 1; }

# /v1/metrics: core series must be present and the counters non-zero.
metrics=$(curl -sf "$base/v1/metrics")
metric_positive() {
    v=$(printf '%s\n' "$metrics" | grep -F "$1" | grep -v '^#' | head -1 | awk '{print $NF}')
    [ -n "$v" ] && awk -v x="$v" 'BEGIN { exit (x > 0) ? 0 : 1 }'
}
for series in \
    'windowd_requests_total{route="POST /v1/query",code="200"}' \
    'windowd_request_duration_seconds_count{route="POST /v1/query"}' \
    'windowd_eval_duration_seconds_count{function="percentile_disc"}' \
    'windowd_respond_duration_seconds_count' \
    'windowd_cache_events_total{event="hit"}' \
    'windowd_cache_events_total{event="miss"}' \
    'windowd_rows_returned_total' \
    'windowd_pool_gets_total' \
    'windowd_arena_arenas_total' \
    'windowd_mst_batch_queries' \
    'windowd_mst_batch_dedup_hits' \
    'windowd_mst_batch_queries_family{family="count"}' \
    'windowd_mst_batch_queries_family{family="select"}' \
    'windowd_mst_batch_queries_family{family="agg"}' \
    'windowd_mst_batch_queries_family{family="rank"}' \
    'windowd_mst_batch_queries_family{family="leadlag"}' \
    'windowd_mst_batch_dedup_hits_family{family="count"}' \
    'windowd_mst_batch_dedup_hits_family{family="agg"}' \
    'windowd_mst_batch_leaf_queries_family{family="count"}' \
    'windowd_mst_batch_diff_queries_family{family="count"}' \
    'windowd_mst_batch_diff_queries_family{family="select"}' \
    'windowd_plan_shared_sorts' \
    'windowd_plan_shared_trees' \
    'windowd_plan_shared_preprocess' \
    'windowd_uptime_seconds'
do
    metric_positive "$series" || { echo "FAIL: metrics series missing or zero: $series"; printf '%s\n' "$metrics" | head -40; exit 1; }
done

# Every response so far was read to its end: the abort counter is exposed, at zero.
printf '%s\n' "$metrics" | grep -q '^windowd_response_aborts_total 0$' \
    || { echo "FAIL: windowd_response_aborts_total missing or non-zero"; printf '%s\n' "$metrics" | grep response_aborts; exit 1; }
metric_positive 'windowd_respond_duration_seconds_sum' || { echo "FAIL: metrics do not report the respond stage"; exit 1; }

cli_out=$("${TMPDIR:-/tmp}/windowcli" -server "$base" -trace \
    -query "select count(distinct v) over (order by d rows between 49 preceding and current row) as cd from t" \
    2> "$tmp/trace.log")
printf '%s\n' "$cli_out" | head -1 | grep -q '^cd$' || { echo "FAIL: windowcli -server output: $cli_out"; exit 1; }
[ "$(printf '%s\n' "$cli_out" | wc -l)" -eq 501 ]   || { echo "FAIL: windowcli row count"; exit 1; }
grep -q 'probe' "$tmp/trace.log" || { echo "FAIL: windowcli -trace printed no span tree"; cat "$tmp/trace.log"; exit 1; }

# Out-of-core datasets: ingest the CSV into a multi-segment directory with
# windowcli, then query the directory locally and compare byte-for-byte
# with the in-RAM answer over the same source.
oq="select d, sum(v) over (order by d rows between 99 preceding and current row) as s from csv"
"${TMPDIR:-/tmp}/windowcli" -i "$tmp/data.csv" -ingest "$tmp/t.seg" -rows-per-segment 125 2> "$tmp/ingest.log"
segs=$(ls "$tmp/t.seg"/*.seg | wc -l)
[ "$segs" -ge 4 ] || { echo "FAIL: ingest produced $segs segments, want >= 4"; cat "$tmp/ingest.log"; exit 1; }
grep -q 'ingested 500 rows into 4 segments' "$tmp/ingest.log" || { echo "FAIL: ingest summary"; cat "$tmp/ingest.log"; exit 1; }
"${TMPDIR:-/tmp}/windowcli" -i "$tmp/data.csv" -query "$oq" > "$tmp/ram.csv"
"${TMPDIR:-/tmp}/windowcli" -i "$tmp/t.seg" -query "$oq" > "$tmp/seg.csv"
cmp -s "$tmp/ram.csv" "$tmp/seg.csv" || { echo "FAIL: segmented query differs from in-RAM answer"; diff "$tmp/ram.csv" "$tmp/seg.csv" | head; exit 1; }

# Register the segment directory over the API; the segmented dataset must
# answer the original query identically to the in-RAM dataset t.
reg=$(curl -sf "$base/v1/datasets/tseg" -H 'Content-Type: application/json' -d "{\"source\":\"dir\",\"dir\":\"$tmp/t.seg\"}")
printf '%s' "$reg" | grep -q '"segments":4' || { echo "FAIL: dir registration: $reg"; exit 1; }
a=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$query" | sed 's/"stats".*//')
b=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "${query/from t/from tseg}" | sed 's/"stats".*//')
[ "$a" = "$b" ] || { echo "FAIL: server segmented query differs from in-RAM dataset"; exit 1; }
curl -sf "$base/v1/datasets" | grep -q '"name":"tseg"[^}]*"segments":4' || { echo "FAIL: dataset listing lacks the segment count"; exit 1; }

# Asynchronous server-side ingest with progress polling.
start=$(curl -sf "$base/v1/datasets/t2" -H 'Content-Type: application/json' \
    -d "{\"source\":\"ingest\",\"path\":\"$tmp/data.csv\",\"dir\":\"$tmp/t2.seg\",\"rows_per_segment\":125}")
printf '%s' "$start" | grep -q '"state"' || { echo "FAIL: ingest start: $start"; exit 1; }
state=""; st=""
for _ in $(seq 1 100); do
    st=$(curl -sf "$base/v1/datasets/t2/ingest")
    state=$(printf '%s' "$st" | grep -o '"state":"[a-z]*"' | cut -d'"' -f4)
    [ "$state" = "done" ] && break
    [ "$state" = "failed" ] && { echo "FAIL: server ingest failed: $st"; exit 1; }
    sleep 0.1
done
[ "$state" = "done" ] || { echo "FAIL: server ingest never finished: $st"; exit 1; }
printf '%s' "$st" | grep -q '"done_intervals":4' || { echo "FAIL: ingest progress: $st"; exit 1; }
curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "${query/from t/from t2}" | grep -q '"med"' \
    || { echo "FAIL: ingested dataset t2 does not answer"; exit 1; }

# Ingest metric families must now be live.
metrics=$(curl -sf "$base/v1/metrics")
metric_positive 'windowd_ingest_runs_total{state="completed"}' || { echo "FAIL: ingest run metric missing"; exit 1; }
metric_positive 'windowd_ingest_segments_written_total' || { echo "FAIL: ingest segment metric missing"; exit 1; }

# Live mutation: register a keyed dataset, stream three mutation batches at
# it (windowcli -append, then upserts and deletes over the raw endpoint),
# and check the answers change, the delta metric families go live, and a
# stale expected_epoch is refused with 409.
{
    echo "k,g,v"
    for i in $(seq 1 100); do
        printf '%d,%d,%d\n' "$i" $(( i % 4 )) $(( (i * 13) % 97 ))
    done
} > "$tmp/live.csv"
"${TMPDIR:-/tmp}/windowcli" -server "$base" -dataset live -key k -i "$tmp/live.csv" 2> "$tmp/live.log"
grep -q 'uploaded live v1 (100 rows)' "$tmp/live.log" || { echo "FAIL: keyed upload"; cat "$tmp/live.log"; exit 1; }

live_sql='select k, max(v) over (partition by g order by k rows between unbounded preceding and current row) as m from live'
live_query="{\"sql\":\"$live_sql\"}"
live0=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$live_query" | sed 's/"stats".*//')

# Batch 1: windowcli -append (10 fresh rows in one atomic batch).
{
    echo "k,g,v"
    for i in $(seq 101 110); do
        printf '%d,%d,%d\n' "$i" $(( i % 4 )) $(( (i * 13) % 97 ))
    done
} > "$tmp/append.csv"
"${TMPDIR:-/tmp}/windowcli" -server "$base" -dataset live -append -i "$tmp/append.csv" 2> "$tmp/append.log"
grep -q 'appended 10 rows to live (epoch 1, 110 rows live)' "$tmp/append.log" \
    || { echo "FAIL: windowcli -append"; cat "$tmp/append.log"; exit 1; }

# Batch 2: upsert + deletes over the endpoint itself.
m2=$(curl -sf "$base/v1/datasets/live/mutations" -H 'Content-Type: application/json' \
    -d '{"mutations":[{"op":"upsert","row":{"k":"1","g":"1","v":"9999"}},{"op":"delete","row":{"k":"2"}},{"op":"delete","row":{"k":"3"}}]}')
printf '%s' "$m2" | grep -q '"epoch":2' || { echo "FAIL: mutation batch 2: $m2"; exit 1; }
printf '%s' "$m2" | grep -q '"rows":108' || { echo "FAIL: mutation batch 2 rows: $m2"; exit 1; }

# Batch 3: conditional on the current epoch.
m3=$(curl -sf "$base/v1/datasets/live/mutations" -H 'Content-Type: application/json' \
    -d '{"expected_epoch":2,"mutations":[{"op":"upsert","row":{"k":"50","g":"2","v":"8888"}}]}')
printf '%s' "$m3" | grep -q '"epoch":3' || { echo "FAIL: mutation batch 3: $m3"; exit 1; }

live1=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "$live_query" | sed 's/"stats".*//')
[ "$live0" != "$live1" ] || { echo "FAIL: answers unchanged after mutations"; exit 1; }
printf '%s' "$live1" | grep -q '9999' || { echo "FAIL: upserted value not visible: $live1"; exit 1; }

# The mutated dataset must answer exactly like a fresh registration of the
# rows it now holds (upserts in place, deletes closing the gap, appends at the
# tail), and its trace must show the snapshot the query pinned.
{
    echo "k,g,v"
    for i in $(seq 1 110); do
        case $i in
            1) echo "1,1,9999" ;;
            2|3) ;;
            50) echo "50,2,8888" ;;
            *) printf '%d,%d,%d\n' "$i" $(( i % 4 )) $(( (i * 13) % 97 )) ;;
        esac
    done
} > "$tmp/live_after.csv"
"${TMPDIR:-/tmp}/windowcli" -server "$base" -dataset live_rebuilt -i "$tmp/live_after.csv" 2> "$tmp/rebuilt.log"
rebuilt=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "${live_query/from live/from live_rebuilt}" | sed 's/"stats".*//')
[ "$live1" = "$rebuilt" ] || { echo "FAIL: mutated dataset differs from a fresh registration of its rows"; exit 1; }
traced=$(curl -sf "$base/v1/query" -H 'Content-Type: application/json' -d "{\"sql\":\"$live_sql\",\"include_trace\":true}")
printf '%s' "$traced" | grep -q 'snapshot: materialize.*clean=false' || { echo "FAIL: trace lacks the snapshot materialize span: $traced"; exit 1; }
printf '%s' "$traced" | grep -q 'snapshot: view' || { echo "FAIL: trace lacks the snapshot view span"; exit 1; }

# A stale expected epoch must be refused with 409 conflict, changing nothing.
code=$(curl -s -o "$tmp/conflict.json" -w '%{http_code}' "$base/v1/datasets/live/mutations" \
    -H 'Content-Type: application/json' \
    -d '{"expected_epoch":0,"mutations":[{"op":"delete","row":{"k":"4"}}]}')
[ "$code" = "409" ] || { echo "FAIL: stale epoch answered HTTP $code"; cat "$tmp/conflict.json"; exit 1; }
grep -q '"conflict"' "$tmp/conflict.json" || { echo "FAIL: conflict envelope"; cat "$tmp/conflict.json"; exit 1; }
curl -sf "$base/v1/datasets" | grep -q '"name":"live".*"epoch":3\|"epoch":3.*"name":"live"' \
    || { echo "FAIL: dataset listing lost the epoch"; exit 1; }

# Delta metric families must now be live.
metrics=$(curl -sf "$base/v1/metrics")
for series in \
    'windowd_delta_mutations_total{op="append"}' \
    'windowd_delta_mutations_total{op="upsert"}' \
    'windowd_delta_mutations_total{op="delete"}' \
    'windowd_delta_batches_total' \
    'windowd_delta_conflicts_total' \
    'windowd_snapshot_materialize_seconds_count'
do
    metric_positive "$series" || { echo "FAIL: delta metrics series missing or zero: $series"; exit 1; }
done
printf '%s\n' "$metrics" | grep -q '^windowd_delta_rows ' || { echo "FAIL: metrics lack the overlay size"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
grep -q "drained, bye" "$tmp/windowd.log" || { echo "FAIL: no graceful shutdown"; cat "$tmp/windowd.log"; exit 1; }
pid=""

echo "e2e smoke: OK (cold builds=$misses1, warm hits=+$(( hits2 - hits1 )))"
