package lattice

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"holistic/internal/core"
	"holistic/internal/csvio"
	"holistic/internal/delta"
	"holistic/internal/mst"
	"holistic/internal/oracle"
	"holistic/internal/parallel"
	"holistic/internal/plan"
	"holistic/internal/segment"
	"holistic/internal/treecache"
)

// Rig is one randomized answer rig: Trials statements over tables drawn from
// Seed, each table queried at epoch 0 and after each of Epochs mutation
// batches (with a compaction midway), by every point whose storage is in
// Storage.
type Rig struct {
	Seed    int64
	Trials  int
	Epochs  int
	Storage []Storage
}

// Run runs the rig. The oracle answers each epoch once; the first point
// must equal it bit for bit (oracle.Identical), and every later point must
// equal the first. At every epoch a point whose storage keeps a cache across
// statements (Segment, Delta) then runs a neighbour of the statement over
// that cache, which must equal the oracle's answers to the neighbour: a
// cache key that leaves out the changed field serves the statement's
// structure or result instead. A failure names the seed, trial, epoch,
// point, function and row.
func (r Rig) Run(t *testing.T) {
	t.Helper()
	var points []Point
	for _, p := range Points {
		if slices.Contains(r.Storage, p.Storage) {
			points = append(points, p)
		}
	}
	cached := slices.ContainsFunc(points, func(p Point) bool { return p.Storage != RAM })
	rng := rand.New(rand.NewSource(r.Seed))
	// Neighbours draw from their own source, so the tables and statements
	// a seed draws are the same with or without them.
	nrng := rand.New(rand.NewSource(r.Seed))
	field := nrng.Intn(len(fields)) // the field the next neighbour changes first; each takes the next
	for trial := range r.Trials {
		tab := RandTable(rng, sizes[trial%len(sizes)])
		stmt := statement(rng)
		pl, err := plan.Build(stmt)
		if err != nil {
			t.Fatalf("seed %d trial %d: %v", r.Seed, trial, err)
		}
		buf, err := delta.NewBuffer(tab, "k", delta.Options{})
		if err != nil {
			t.Fatalf("seed %d trial %d: %v", r.Seed, trial, err)
		}
		live, nextKey := make([]int64, tab.Rows()), int64(tab.Rows())
		for i := range live {
			live[i] = int64(i)
		}
		caches := make([]*treecache.Cache, len(points)) // kept across epochs
		for i := range caches {
			caches[i] = treecache.New(0)
		}
		for epoch := 0; epoch <= r.Epochs; epoch++ {
			where := fmt.Sprintf("seed %d trial %d epoch %d", r.Seed, trial, epoch)
			if epoch > 0 {
				_, err = buf.Apply(-1, batch(rng, &live, &nextKey))
				if err == nil && epoch == (r.Epochs+1)/2 {
					_, _, err = buf.Compact()
				}
			}
			snap := buf.Snapshot()
			if err == nil {
				err = snap.Verify()
			}
			if err == nil {
				tab, err = snap.Table()
			}
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			want := Answers(stmt, tab)
			var next *plan.Statement
			var nextPlan *plan.Plan
			var nextWant [][]oracle.Value
			if cached {
				var change string
				next, nextWant, change = neighbour(nrng, stmt, field%len(fields), oracleTable(tab), want)
				field++
				if nextPlan, err = plan.Build(next); err != nil {
					t.Fatalf("%s, neighbour (%s): %v", where, change, err)
				}
				where += fmt.Sprintf(" (neighbour: %s)", change)
			}
			ref := -1 // the first point with a result
			results := make([]*core.Table, len(points))
			for pi, p := range points {
				plans := []*plan.Plan{pl}
				if p.Storage != RAM {
					plans = append(plans, nextPlan)
				}
				outs := query(t, where, p, snap, tab, caches[pi], plans...)
				if outs == nil {
					continue
				}
				results[pi] = outs[0]
				label := fmt.Sprintf("%s, point %v", where, p)
				if ref < 0 {
					ref = pi
					requireAnswers(t, label, stmt, outs[0], want)
				} else {
					for _, item := range stmt.Items {
						RequireIdentical(t, fmt.Sprintf("%s: %s, against point %v", label, describe(item), points[ref]),
							outs[0].Column(item.Name), results[ref].Column(item.Name))
					}
				}
				if len(outs) > 1 {
					requireAnswers(t, label+", neighbour", next, outs[1], nextWant)
				}
			}
		}
	}
}

// requireAnswers fails t at the first item and row where out differs from
// the oracle's answers to stmt bit for bit (oracle.Identical).
func requireAnswers(t *testing.T, label string, stmt *plan.Statement, out *core.Table, want [][]oracle.Value) {
	t.Helper()
	for i, item := range stmt.Items {
		got := Column(out.Column(item.Name))
		for row, w := range want[i] {
			if !oracle.Identical(got.Value(row), w) {
				t.Fatalf("%s: %s, row %d: got %+v, the oracle gives %+v", label, describe(item), row, got.Value(row), w)
			}
		}
	}
}

// describe names an item in failure messages.
func describe(item plan.Item) string {
	f := item.Func
	return fmt.Sprintf("%s = %v over (partition by %v order by %v) frame %+v", item.Name, f.Name, item.PartitionBy, item.OrderBy, f.Frame)
}

// RequireIdentical fails t at the first row where got and want differ bit
// for bit (oracle.Identical).
func RequireIdentical(t testing.TB, label string, got, want *core.Column) {
	t.Helper()
	g, w := Column(got), Column(want)
	if len(g.Nulls) != len(w.Nulls) {
		t.Fatalf("%s: %d rows, want %d", label, len(g.Nulls), len(w.Nulls))
	}
	for row := range w.Nulls {
		if !oracle.Identical(g.Value(row), w.Value(row)) {
			t.Fatalf("%s, row %d: got %+v, want %+v", label, row, g.Value(row), w.Value(row))
		}
	}
}

// Answers evaluates every item of the statement over tab with the oracle.
func Answers(stmt *plan.Statement, t *core.Table) [][]oracle.Value {
	tab := oracleTable(t)
	want := make([][]oracle.Value, len(stmt.Items))
	for i, item := range stmt.Items {
		want[i] = answer(tab, item)
	}
	return want
}

// answer evaluates one item over tab with the oracle.
func answer(tab oracle.Table, item plan.Item) []oracle.Value {
	keys := func(ks []core.SortKey) (out []oracle.SortKey) {
		for _, k := range ks {
			out = append(out, oracle.SortKey(k))
		}
		return out
	}
	f := item.Func
	return oracle.Eval(tab, oracle.Window{PartitionBy: item.PartitionBy, OrderBy: keys(item.OrderBy)},
		oracle.Func{Name: f.Name.String(), Arg: f.Arg, OrderBy: keys(f.OrderBy), Fraction: f.Fraction, N: f.N,
			Filter: f.Filter, IgnoreNulls: f.IgnoreNulls, Frame: f.Frame})
}

// query runs each plan at one point, in order and over one cache, and
// returns their outputs; nil when the point cannot hold the table.
func query(t *testing.T, where string, p Point, snap *delta.Snapshot, tab *core.Table, cache *treecache.Cache, plans ...*plan.Plan) []*core.Table {
	t.Helper()
	opt := core.Options{TaskSize: p.TaskSize, NoSharedPlan: p.NoSharedPlan,
		Context: parallel.ContextWithLimit(context.Background(), p.Procs)}
	switch p.Storage {
	case Segment:
		if tab.Rows() == 0 {
			return nil // a segment holds at least one row
		}
		tab, opt.CacheScope = segments(t, where, tab)
		opt.Cache = cache
	case Delta:
		view, err := snap.View()
		if err != nil {
			t.Fatalf("%s, point %v: %v", where, p, err)
		}
		opt.Delta, opt.Cache, opt.CacheScope = view, cache, fmt.Sprintf("lattice@g%d", snap.Gen())
	}
	defer mst.SetLeafRows(mst.SetLeafRows(p.LeafRows))
	outs := make([]*core.Table, len(plans))
	for i, pl := range plans {
		out, _, err := pl.Execute(tab, opt)
		if err != nil {
			t.Fatalf("%s, point %v: %v", where, p, err)
		}
		outs[i] = out
	}
	return outs
}

// segments writes tab as four segments (fewer when it has fewer rows),
// reopens them and requires the loaded table to equal tab bit for bit. It
// returns the loaded table and its cache scope. The format has no BOOL
// encoding, so BOOL columns stay in RAM.
func segments(t *testing.T, where string, tab *core.Table) (*core.Table, string) {
	t.Helper()
	dir := t.TempDir()
	n := tab.Rows()
	for i := range 4 {
		lo, hi := i*n/4, (i+1)*n/4
		if lo == hi {
			continue
		}
		var part []*core.Column
		for _, c := range tab.Columns() {
			if c.Kind() != core.Bool {
				part = append(part, core.ConcatSpans([]*core.Column{c}, []core.RowSpan{{Lo: lo, Hi: hi}}))
			}
		}
		w, err := segment.NewWriter(filepath.Join(dir, fmt.Sprintf("part-%d%s", i, segment.FileSuffix)), 16)
		if err == nil {
			err = w.WriteTable(&csvio.File{Table: core.MustNewTable(part...)}, int64(lo))
		}
		if err == nil {
			_, err = w.Finish()
		}
		if err != nil {
			t.Fatalf("%s: writing segment %d: %v", where, i, err)
		}
	}
	d, err := segment.OpenDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	t.Cleanup(func() { d.Close() })
	f, err := d.File(nil)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	cols := make([]*core.Column, len(tab.Columns()))
	for ci, c := range tab.Columns() {
		if cols[ci] = f.Table.Column(c.Name()); cols[ci] == nil {
			cols[ci] = c
		}
		RequireIdentical(t, fmt.Sprintf("%s: column %s loaded from segments", where, c.Name()), cols[ci], c)
	}
	return core.MustNewTable(cols...), "t@" + d.Version()
}
