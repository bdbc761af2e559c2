package delta_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"holistic/internal/core"
	"holistic/internal/delta"
)

// requireTablesIdentical compares two tables cell for cell and mask for
// mask: names, kinds, whether a mask exists at all (nil vs non-nil), every
// NULL bit, and every stored value — the ones under a NULL included, which
// materialisation zeroes.
func requireTablesIdentical(t testing.TB, got, want *core.Table, label string) {
	t.Helper()
	if got.Rows() != want.Rows() || len(got.Columns()) != len(want.Columns()) {
		t.Fatalf("%s: %d rows x %d columns, want %d x %d", label,
			got.Rows(), len(got.Columns()), want.Rows(), len(want.Columns()))
	}
	for ci, g := range got.Columns() {
		w := want.Columns()[ci]
		if g.Name() != w.Name() || g.Kind() != w.Kind() || g.Len() != w.Len() {
			t.Fatalf("%s column %d: %s %v x%d, want %s %v x%d", label, ci,
				g.Name(), g.Kind(), g.Len(), w.Name(), w.Kind(), w.Len())
		}
		if g.HasNulls() != w.HasNulls() {
			t.Fatalf("%s column %s: mask present=%v, want %v", label, g.Name(), g.HasNulls(), w.HasNulls())
		}
		for i := 0; i < g.Len(); i++ {
			if g.IsNull(i) != w.IsNull(i) {
				t.Fatalf("%s column %s row %d: null=%v, want %v", label, g.Name(), i, g.IsNull(i), w.IsNull(i))
			}
			same := true
			switch g.Kind() {
			case core.Int64:
				same = g.Int64(i) == w.Int64(i)
			case core.Float64:
				same = math.Float64bits(g.Float64(i)) == math.Float64bits(w.Float64(i))
			case core.String:
				same = g.StringAt(i) == w.StringAt(i)
			default:
				same = g.Bool(i) == w.Bool(i)
			}
			if !same {
				t.Fatalf("%s column %s row %d (null=%v): stored values differ", label, g.Name(), i, g.IsNull(i))
			}
		}
	}
}

// requireMatchesReference holds the snapshot's merged table — the cached one
// a query pins and a fresh build — to the per-row reference.
func requireMatchesReference(t testing.TB, snap *delta.Snapshot, label string) {
	t.Helper()
	want, err := delta.ReferenceMaterialize(snap)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, err := snap.Materialize()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	requireTablesIdentical(t, got, want, label)
	tab, err := snap.Table()
	if err != nil {
		t.Fatalf("%s: Table: %v", label, err)
	}
	requireTablesIdentical(t, tab, want, label+" (Table)")
}

// TestMaterializeMatchesReference is the differential test of the span-copy
// materialisation against the per-row code it replaced, over seeded random
// mutation streams: all four kinds with NULLs in base and overlay (and a
// base without any, whose masks must stay nil until the overlay brings one),
// overrides of the first and the last base row, upsert-then-delete and
// append-then-delete of one row, and a compaction every fourth batch so each
// generation sees at least three epochs and starts from an empty overlay.
func TestMaterializeMatchesReference(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		nBase := []int{0, 1, 2, 17, 64, 300}[trial%6]
		var rows [][]delta.Value
		var live []int64
		nextKey := int64(0)
		for i := 0; i < nBase; i++ {
			row := randRow(rng, nextKey)
			if trial%2 == 1 {
				for c := range row {
					if row[c].Null {
						row[c] = randRow(rng, nextKey)[c]
						row[c].Null = false
					}
				}
			}
			rows = append(rows, row)
			live = append(live, nextKey)
			nextKey++
		}
		buf, err := delta.NewBuffer(buildTable(t, rows), "k", delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		apply := func(label string, muts ...delta.Mutation) {
			t.Helper()
			if _, err := buf.Apply(-1, muts); err != nil {
				t.Fatalf("trial %d %s: Apply: %v", trial, label, err)
			}
			snap := buf.Snapshot()
			if err := snap.Verify(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, label, err)
			}
			requireMatchesReference(t, snap, label)
		}
		for batch := 0; batch < 12; batch++ {
			apply("random batch", randMutations(rng, &live, &nextKey, 1+rng.Intn(8))...)
			switch batch % 4 {
			case 0:
				if len(live) > 0 {
					// The merged table's first and last rows: base rows right
					// after a compaction, overlay rows otherwise.
					first, last := live[0], live[len(live)-1]
					apply("override ends",
						delta.Mutation{Op: delta.OpUpsert, Row: randRow(rng, first)},
						delta.Mutation{Op: delta.OpUpsert, Row: randRow(rng, last)})
				}
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					apply("upsert then delete",
						delta.Mutation{Op: delta.OpUpsert, Row: randRow(rng, k)},
						delta.Mutation{Op: delta.OpDelete, Row: randRow(rng, k)})
				}
			case 2:
				k := nextKey
				nextKey++
				apply("append", delta.Mutation{Op: delta.OpAppend, Row: randRow(rng, k)})
				apply("then delete", delta.Mutation{Op: delta.OpDelete, Row: randRow(rng, k)})
			case 3:
				if _, _, err := buf.Compact(); err != nil {
					t.Fatalf("trial %d: Compact: %v", trial, err)
				}
				snap := buf.Snapshot()
				requireMatchesReference(t, snap, "empty overlay after compaction")
				if tab, _ := snap.Table(); tab.Rows() != len(live) {
					t.Fatalf("trial %d: compacted table has %d rows, %d keys live", trial, tab.Rows(), len(live))
				}
			}
		}
	}
}

// wideBuffer builds the materialisation benchmarks' table — rows x 5 columns
// (INT64 key, INT64, INT64 with NULLs, FLOAT64, STRING) — and applies one
// batch of overlay rows spread over the table: in-place upserts, and a
// delete in every fourth position when deletes is set.
func wideBuffer(t testing.TB, rows, overlay int, deletes bool) *delta.Buffer {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	k, a, b := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	f, s, bNull := make([]float64, rows), make([]string, rows), make([]bool, rows)
	for i := 0; i < rows; i++ {
		k[i], a[i], b[i] = int64(i), rng.Int63n(100), rng.Int63n(1e6)
		f[i], s[i], bNull[i] = float64(rng.Int63n(1e6))/100, string(rune('a'+i%23)), i%97 == 0
	}
	tab := core.MustNewTable(
		core.NewInt64Column("k", k, nil), core.NewInt64Column("a", a, nil), core.NewInt64Column("b", b, bNull),
		core.NewFloat64Column("f", f, nil), core.NewStringColumn("s", s, nil))
	buf, err := delta.NewBuffer(tab, "k", delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	muts := make([]delta.Mutation, 0, overlay)
	for i := 0; i < overlay; i++ {
		key := int64(i) * int64(rows/overlay)
		row := []delta.Value{delta.Int64Value(key), delta.Int64Value(1), delta.Int64Value(2),
			delta.Float64Value(3.5), delta.StringValue("upserted")}
		op := delta.OpUpsert
		if deletes && i%4 == 3 {
			op = delta.OpDelete
		}
		muts = append(muts, delta.Mutation{Op: op, Row: row})
	}
	if _, err := buf.Apply(-1, muts); err != nil {
		t.Fatal(err)
	}
	return buf
}

// plainCopy copies every column of t with the typed copies a materialisation
// cannot do without: the floor its cost is held against.
func plainCopy(t *core.Table) int {
	n := 0
	for _, c := range t.Columns() {
		out := core.ConcatSpans([]*core.Column{c}, []core.RowSpan{{Lo: 0, Hi: c.Len()}})
		n += out.Len()
	}
	return n
}

// TestMaterializeCostTracksCopy guards the point of the span copies: what a
// 100-row overlay adds to materialising 200k x 5 is noise next to copying
// the columns. The per-row version read 4.5x to 9x the copy.
func TestMaterializeCostTracksCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	snap := wideBuffer(t, 200_000, 100, true).Snapshot()
	merged, err := snap.Table()
	if err != nil {
		t.Fatal(err)
	}
	// Best of seven, alternating, so both sides see the same heap and the
	// same neighbours on the box.
	timed := func(best *time.Duration, run func()) {
		start := time.Now()
		run()
		*best = min(*best, time.Since(start))
	}
	materialize, plain := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 7; i++ {
		timed(&materialize, func() {
			if _, err := snap.Materialize(); err != nil {
				t.Fatal(err)
			}
		})
		timed(&plain, func() { plainCopy(merged) })
	}
	t.Logf("materialize %v, plain copy %v (%.1fx)", materialize, plain, float64(materialize)/float64(plain))
	if materialize > 3*plain {
		t.Fatalf("materialising 200k x 5 under a 100-row overlay took %v, a plain copy of the columns %v: more than 3x", materialize, plain)
	}
}

// BenchmarkSnapshotMaterialize times one merged-table build at 200k x 5 for
// overlays of 0 (the pure copy), 100 and 2,048 rows, upserts only and with a
// quarter of the overlay deletes.
func BenchmarkSnapshotMaterialize(b *testing.B) {
	const rows = 200_000
	for _, bc := range []struct {
		name    string
		overlay int
		deletes bool
	}{
		{"overlay=0", 0, false},
		{"overlay=100", 100, false},
		{"overlay=100/deletes", 100, true},
		{"overlay=2048", 2048, false},
		{"overlay=2048/deletes", 2048, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			snap := wideBuffer(b, rows, max(bc.overlay, 1), bc.deletes).Snapshot()
			if bc.overlay == 0 {
				base, err := snap.Table()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plainCopy(base)
				}
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Materialize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
