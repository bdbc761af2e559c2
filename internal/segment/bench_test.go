package segment

import (
	"testing"

	"holistic"
	"holistic/internal/treecache"
)

// BenchmarkEvalSegmented measures the query path over a segment dataset:
// a four-segment dataset is materialized once, and a framed window query is
// evaluated over it. The structure cache serves the queries only; it is
// warmed outside the loop, so the steady state — what a windowd request
// sees — is measured.
func BenchmarkEvalSegmented(b *testing.B) {
	const n = 20000
	ram := testFile(99, n)
	dir := b.TempDir()
	writeSegments(b, dir, ram, []int{n / 4, n / 2, 3 * n / 4}, 0)
	d, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	segFile, err := d.File(nil)
	if err != nil {
		b.Fatal(err)
	}
	cache := treecache.New(256 << 20)
	q := `select sum(v) over w as s, rank(order by v) over w as r
	      from t window w as (partition by g order by d, v
	                          rows between 100 preceding and 100 following)`
	opt := holistic.Options{
		Cache:      cache,
		CacheScope: "t@" + d.Version(),
	}
	tables := map[string]*holistic.Table{"t": segFile.Table}
	if _, err := holistic.RunSQLOptions(q, tables, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := holistic.RunSQLOptions(q, tables, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * 8))
}

// BenchmarkSegmentMaterialize measures materialization: per iteration every
// block is read from disk, CRC-checked and decoded into the table.
func BenchmarkSegmentMaterialize(b *testing.B) {
	const n = 20000
	ram := testFile(98, n)
	dir := b.TempDir()
	writeSegments(b, dir, ram, []int{n / 4, n / 2, 3 * n / 4}, 0)
	d, err := OpenDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.File(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * 8 * len(ram.Table.Columns())))
}
