package delta_test

import (
	"fmt"
	"math/rand"
	"testing"

	"holistic/internal/core"
	"holistic/internal/delta"
	"holistic/internal/frame"
	"holistic/internal/lattice"
	"holistic/internal/treecache"
)

// benchRow draws one row keyed by key whose partition column g is key%parts,
// so a mutation's partition membership is a function of its key: upserting
// keys with one residue touches exactly one partition.
func benchRow(rng *rand.Rand, key int64, parts int64) []delta.Value {
	return []delta.Value{
		delta.Int64Value(key),
		delta.Int64Value(key % parts),     // g
		delta.Int64Value(rng.Int63n(1e6)), // d
		delta.Int64Value(rng.Int63n(1e4)), // v
		delta.Float64Value(float64(rng.Int63n(1e4)) / 4),
		delta.StringValue(string(rune('a' + key%17))),
		delta.BoolValue(key%5 != 0),
	}
}

func benchBuffer(b *testing.B, n int, parts int64, opt delta.Options) (*delta.Buffer, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	rows := make([][]delta.Value, n)
	for i := range rows {
		rows[i] = benchRow(rng, int64(i), parts)
	}
	buf, err := delta.NewBuffer(lattice.BuildTable(rows), "k", opt)
	if err != nil {
		b.Fatal(err)
	}
	return buf, rng
}

// BenchmarkDeltaApply measures sustained mutation throughput: batches of 100
// mixed upserts/appends/deletes against a 100k-row buffer, with the overlay
// folded back by Compact whenever it crosses the threshold (the production
// write path, compaction cost included).
func BenchmarkDeltaApply(b *testing.B) {
	const baseRows, parts, batchSize = 100_000, 100, 100
	buf, rng := benchBuffer(b, baseRows, parts, delta.Options{CompactRows: 25_000})
	nextKey := int64(baseRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		muts := make([]delta.Mutation, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			switch j % 10 {
			case 0:
				muts = append(muts, delta.Mutation{Op: delta.OpAppend, Row: benchRow(rng, nextKey, parts)})
				nextKey++
			case 1:
				// Delete a key appended by an earlier batch (the base keys
				// stay live so upserts below never miss).
				if nextKey > int64(baseRows)+1 {
					k := int64(baseRows) + rng.Int63n(nextKey-int64(baseRows))
					muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: benchRow(rng, k, parts)})
				}
			default:
				muts = append(muts, delta.Mutation{Op: delta.OpUpsert, Row: benchRow(rng, rng.Int63n(baseRows), parts)})
			}
		}
		if _, err := buf.Apply(-1, muts); err != nil {
			b.Fatal(err)
		}
		if buf.NeedsCompaction() {
			if _, _, err := buf.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(batchSize), "muts/op")
}

// benchEvalWindow is the query both eval benchmarks run: three holistic
// functions over 100 partitions with a sliding 1000-row frame.
func benchEvalWindow() *core.WindowSpec {
	return &core.WindowSpec{
		PartitionBy: []string{"g"},
		OrderBy:     []core.SortKey{{Column: "d"}},
		Frame: frame.Spec{
			Mode:  frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: 999},
			End:   frame.Bound{Type: frame.CurrentRow},
		},
		FrameSet: true,
		Funcs: []core.FuncSpec{
			{Name: core.CountDistinct, Output: "cd", Arg: "v"},
			{Name: core.PercentileDisc, Output: "med", Fraction: 0.5, OrderBy: []core.SortKey{{Column: "v"}}},
			{Name: core.Rank, Output: "r", OrderBy: []core.SortKey{{Column: "v"}}},
		},
	}
}

// BenchmarkEvalWithDelta is the sustained-mutation query benchmark at 1M
// rows and 100 partitions: each iteration applies one 100-upsert batch
// confined to two partitions and re-evaluates the windowed query.
//
//   - delta: evaluates through the snapshot's delta view with a shared
//     structure cache — untouched partitions reuse their merge sort trees
//     across epochs, the sort order comes from the frozen-order merge.
//   - rebuild: evaluates the same merged table from scratch every batch
//     (no cache, no view) — the cost live mutation replaces.
func BenchmarkEvalWithDelta(b *testing.B) {
	const baseRows, parts, batchSize = 1_000_000, 100, 100
	run := func(b *testing.B, useDelta bool) {
		buf, rng := benchBuffer(b, baseRows, parts, delta.Options{})
		w := benchEvalWindow()
		cache := treecache.New(0)
		evalOnce := func() {
			snap := buf.Snapshot()
			tab, err := snap.Table()
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{TaskSize: 1 << 14}
			if useDelta {
				view, verr := snap.View()
				if verr != nil {
					b.Fatal(verr)
				}
				opt.Cache = cache
				opt.CacheScope = fmt.Sprintf("bench@v1|g%d", snap.Gen())
				opt.Delta = view
			}
			if _, err := core.Run(tab, w, opt); err != nil {
				b.Fatal(err)
			}
		}
		evalOnce() // warm: the delta path starts from a populated cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			muts := make([]delta.Mutation, batchSize)
			for j := range muts {
				// Keys with residues 0 and 1 modulo parts: the batch touches
				// exactly two of the hundred partitions.
				k := rng.Int63n(baseRows/parts)*parts + int64(j%2)
				muts[j] = delta.Mutation{Op: delta.OpUpsert, Row: benchRow(rng, k, parts)}
			}
			if _, err := buf.Apply(-1, muts); err != nil {
				b.Fatal(err)
			}
			evalOnce()
		}
	}
	b.Run("delta", func(b *testing.B) { run(b, true) })
	b.Run("rebuild", func(b *testing.B) { run(b, false) })
}
