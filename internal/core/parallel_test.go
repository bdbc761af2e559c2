package core

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"holistic/internal/arena"
	"holistic/internal/obs"
	"holistic/internal/parallel"
	"holistic/internal/treecache"
)

// TestParallelWorkersMatchSerial forces a worker pool larger than the CPU
// count so the parallel code paths (sort merges, tree builds, probe tasks)
// genuinely interleave, then cross-checks against a single-worker run.
// Run with -race to catch data races in the shared read-only structures.
func TestParallelWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 30_000
	d := make([]int64, n)
	v := make([]int64, n)
	g := make([]int64, n)
	for i := range d {
		d[i] = rng.Int63n(5000)
		v[i] = rng.Int63n(300)
		g[i] = rng.Int63n(4)
	}
	tab := MustNewTable(
		NewInt64Column("g", g, nil),
		NewInt64Column("d", d, nil),
		NewInt64Column("v", v, nil),
	)
	build := func() *WindowSpec {
		return &WindowSpec{
			PartitionBy: []string{"g"},
			OrderBy:     []SortKey{{Column: "d"}},
			Funcs: []FuncSpec{
				{Name: CountDistinct, Output: "cd", Arg: "v"},
				{Name: SumDistinct, Output: "sd", Arg: "v"},
				{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
				{Name: PercentileDisc, Output: "p", Fraction: 0.5, OrderBy: []SortKey{{Column: "v"}}},
				{Name: Lead, Output: "l", Arg: "v", N: 1, OrderBy: []SortKey{{Column: "v"}}},
				{Name: DenseRank, Output: "dr", OrderBy: []SortKey{{Column: "v"}}},
			},
		}
	}

	prev := parallel.SetMaxWorkers(1)
	serial, err := Run(tab, build(), Options{TaskSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetMaxWorkers(8)
	par, err := Run(tab, build(), Options{TaskSize: 1024})
	parallel.SetMaxWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"cd", "sd", "r", "p", "l", "dr"} {
		sc, pc := serial.Column(col), par.Column(col)
		for i := 0; i < n; i++ {
			if sc.IsNull(i) != pc.IsNull(i) {
				t.Fatalf("%s[%d]: null mismatch between serial and parallel", col, i)
			}
			if !sc.IsNull(i) && sc.Int64(i) != pc.Int64(i) {
				t.Fatalf("%s[%d]: %d (serial) != %d (parallel)", col, i, sc.Int64(i), pc.Int64(i))
			}
		}
	}
}

// TestManyPartitionsParallel exercises the cross-partition parallel path
// (many small partitions, one task each).
func TestManyPartitionsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	n := 20_000
	g := make([]int64, n)
	v := make([]int64, n)
	for i := range g {
		g[i] = rng.Int63n(500) // ~40 rows per partition
		v[i] = rng.Int63n(50)
	}
	tab := MustNewTable(
		NewInt64Column("g", g, nil),
		NewInt64Column("v", v, nil),
	)
	prev := parallel.SetMaxWorkers(8)
	defer parallel.SetMaxWorkers(prev)
	w := &WindowSpec{
		PartitionBy: []string{"g"},
		OrderBy:     []SortKey{{Column: "v"}},
		Funcs: []FuncSpec{
			{Name: CountDistinct, Output: "cd", Arg: "v"},
			{Name: RowNumber, Output: "rn", OrderBy: []SortKey{{Column: "v"}}},
		},
	}
	res, err := Run(tab, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check against per-partition brute force.
	for _, probe := range []int{0, 17, 4099, n - 1} {
		seen := map[int64]struct{}{}
		rn := int64(1)
		for j := 0; j < n; j++ {
			if g[j] != g[probe] {
				continue
			}
			// default frame: RANGE UNBOUNDED..CURRENT (peers included)
			if v[j] <= v[probe] {
				seen[v[j]] = struct{}{}
			}
			if v[j] < v[probe] || (v[j] == v[probe] && j < probe) {
				rn++
			}
		}
		if got := res.Column("cd").Int64(probe); got != int64(len(seen)) {
			t.Fatalf("row %d: cd %d, want %d", probe, got, len(seen))
		}
		if got := res.Column("rn").Int64(probe); got != rn {
			t.Fatalf("row %d: rn %d, want %d", probe, got, rn)
		}
	}
}

// cancelOnSelect is a tree cache that cancels the run the moment it is asked
// for the permutation tree of a select function, and counts that tree's
// builds.
type cancelOnSelect struct {
	*treecache.Cache
	cancel func() // nil: pass the lookup through
	builds int
}

func (c *cancelOnSelect) GetOrBuild(key string, build func() (any, int64, error)) (any, error) {
	if !strings.Contains(key, "|"+tagSelect) {
		return c.Cache.GetOrBuild(key, build)
	}
	if c.cancel != nil {
		c.cancel()
	}
	return c.Cache.GetOrBuild(key, func() (any, int64, error) {
		c.builds++
		return build()
	})
}

// TestTreeBuildObeysRunContext checks that a tree build runs under the run's
// context. Its merge levels take the worker cap of the run's context, which
// each "mst: merge level" span records, not the process-wide count. A run
// cancelled just before its build fails with the context's error, returns
// every pooled buffer and leaves no tree in the cache, so the next run
// builds it again.
func TestTreeBuildObeysRunContext(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(5))
	const n = 50_000
	d := make([]int64, n)
	s := make([]string, n)
	for i := range d {
		d[i] = int64(i)
		s[i] = strconv.Itoa(rng.Intn(n)) // a string order sorts without the context
	}
	tab := MustNewTable(NewInt64Column("d", d, nil), NewStringColumn("s", s, nil))
	spec := func() *WindowSpec {
		return &WindowSpec{OrderBy: []SortKey{{Column: "d"}}, Funcs: []FuncSpec{
			{Name: PercentileDisc, Output: "p", Fraction: 0.5, OrderBy: []SortKey{{Column: "s"}}},
		}}
	}

	for _, c := range []struct {
		workers int
		want    string
	}{{0, "4"}, {1, "1"}} {
		root := obs.NewSpan("run")
		if _, err := Run(tab, spec(), Options{Context: parallel.ContextWithLimit(context.Background(), c.workers), Trace: root}); err != nil {
			t.Fatal(err)
		}
		root.End()
		levels := 0
		root.Walk(func(sp *obs.Span, _ int) {
			if sp.Name() != "mst: merge level" {
				return
			}
			levels++
			if got := sp.Attr("workers"); got != c.want {
				t.Errorf("Workers=%d: merge level %s ran with workers=%q, want %s", c.workers, sp.Attr("level"), got, c.want)
			}
		})
		if levels == 0 {
			t.Fatalf("Workers=%d: no merge level spans in\n%s", c.workers, root.Render())
		}
	}

	want, err := Run(tab, spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := &cancelOnSelect{Cache: treecache.New(0), cancel: cancel}
	inUse := func() map[string]int64 {
		m := map[string]int64{}
		for _, ps := range arena.Snapshot() {
			m[ps.Name] = ps.Gets - ps.Puts
		}
		return m
	}
	before := inUse()
	if _, err := Run(tab, spec(), Options{Context: ctx, Cache: cache, CacheScope: "t"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled before its build: err = %v, want context.Canceled", err)
	}
	for name, n := range inUse() {
		if n != before[name] {
			t.Errorf("pool %s: %d buffers out after the cancelled run, %d before", name, n, before[name])
		}
	}
	if st := cache.Stats(); st.Failures != 1 {
		t.Errorf("cancelled build: cache failures = %d, want 1", st.Failures)
	}
	cache.cancel = nil
	got, err := Run(tab, spec(), Options{Context: context.Background(), Cache: cache, CacheScope: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if cache.builds != 2 {
		t.Errorf("select tree built %d times over the cancelled and the live run, want 2: the cancelled build was cached", cache.builds)
	}
	for i := 0; i < n; i++ {
		if a, b := got.Column("p").StringAt(i), want.Column("p").StringAt(i); a != b {
			t.Fatalf("p[%d] = %q after the cancelled run, want %q", i, a, b)
		}
	}
}
