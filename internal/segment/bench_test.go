package segment

import (
	"testing"

	"holistic"
	"holistic/internal/treecache"
)

// BenchmarkEvalSegmented measures the out-of-core query path end to end:
// materialize a four-segment dataset through the column cache and evaluate
// a framed window query. The cache is warmed
// outside the loop, so the steady state — what a windowd request sees — is
// measured.
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
	cache := treecache.New(256 << 20)
	segFile, err := d.File(cache)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSegmentMaterialize measures the cold materialization path: per
// iteration the column cache starts empty, so every block is read from
// disk, CRC-checked and decoded.
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
