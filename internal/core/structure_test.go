package core

import (
	"context"
	"maps"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"holistic/internal/frame"
	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/parallel"
)

// TestStructureIdentity pins which functions share a structure and which
// fields split one, as pairs of rendered identities that must be equal or
// must differ: the planner's (StructureOf) for the functions, a partition's
// key for the result entries and the tree options.
func TestStructureIdentity(t *testing.T) {
	byD := []SortKey{{Column: "d"}}
	byV := []SortKey{{Column: "v"}}
	rows := func(preceding, following int64) frame.Spec {
		return frame.Spec{Mode: frame.Rows,
			Start: frame.Bound{Type: frame.Preceding, Offset: preceding},
			End:   frame.Bound{Type: frame.Following, Offset: following}}
	}
	unbounded := frame.Spec{Mode: frame.Rows,
		Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}}
	// planned renders f's identity under a window ordered by d.
	planned := func(f FuncSpec, spec frame.Spec, argKind Kind) string {
		s := StructureOf(&f, byD, spec, argKind)
		return s.String()
	}
	fn := func(name FuncName) FuncSpec { return FuncSpec{Name: name, Output: "x", Arg: "v", OrderBy: byV} }
	with := func(f FuncSpec, edit func(*FuncSpec)) FuncSpec { edit(&f); return f }
	whole := frame.WholePartition()

	for _, c := range []struct {
		name string
		a, b string
		same bool
	}{
		{"RANK and PERCENT_RANK", planned(fn(Rank), whole, Int64), planned(fn(PercentRank), whole, Int64), true},
		{"RANK and CUME_DIST", planned(fn(Rank), whole, Int64), planned(fn(CumeDist), whole, Int64), true},
		{"ROW_NUMBER and NTILE", planned(fn(RowNumber), whole, Int64), planned(fn(Ntile), whole, Int64), true},
		{"RANK and ROW_NUMBER", planned(fn(Rank), whole, Int64), planned(fn(RowNumber), whole, Int64), false},
		{"RANK and DENSE_RANK", planned(fn(Rank), whole, Int64), planned(fn(DenseRank), whole, Int64), false},
		{"percentile fraction",
			planned(with(fn(PercentileDisc), func(f *FuncSpec) { f.Fraction = 0.5 }), whole, Int64),
			planned(with(fn(PercentileCont), func(f *FuncSpec) { f.Fraction = 0.9 }), whole, Int64), true},
		{"LEAD and LAG offsets",
			planned(with(fn(Lead), func(f *FuncSpec) { f.N = 1 }), whole, Int64),
			planned(with(fn(Lag), func(f *FuncSpec) { f.N = 3 }), whole, Int64), true},
		{"LAST_VALUE and LAG", planned(fn(LastValue), whole, Int64), planned(fn(Lag), whole, Int64), true},
		{"NTH_VALUE argument", planned(fn(NthValue), whole, Int64),
			planned(with(fn(NthValue), func(f *FuncSpec) { f.Arg = "fv" }), whole, Int64), true},
		{"leaf frame offsets", planned(fn(CountDistinct), rows(3, 0), Int64), planned(fn(CountDistinct), rows(10, 5), Int64), true},
		{"full frame offsets", planned(fn(Rank), rows(300, 0), Int64), planned(fn(Rank), rows(1000, 20), Int64), true},
		{"full frame and whole partition", planned(fn(Rank), rows(300, 0), Int64), planned(fn(Rank), whole, Int64), true},
		{"permutation tree over any frame", planned(fn(FirstValue), rows(3, 0), Int64), planned(fn(FirstValue), whole, Int64), true},
		{"float SUM(DISTINCT) over any frame", planned(fn(SumDistinct), rows(3, 0), Float64), planned(fn(SumDistinct), whole, Float64), true},
		{"width class", planned(fn(CountDistinct), rows(5, 0), Int64), planned(fn(CountDistinct), unbounded, Int64), false},
		{"int SUM(DISTINCT) width class", planned(fn(SumDistinct), rows(5, 0), Int64), planned(fn(SumDistinct), whole, Int64), false},
		{"sliding bounds", planned(fn(CountDistinct), rows(200, 0), Int64), planned(fn(CountDistinct), rows(300, 0), Int64), false},
		{"FILTER on COUNT(DISTINCT)", planned(fn(CountDistinct), whole, Int64),
			planned(with(fn(CountDistinct), func(f *FuncSpec) { f.Filter = "b" }), whole, Int64), false},
		{"FILTER on RANK", planned(fn(Rank), whole, Int64),
			planned(with(fn(Rank), func(f *FuncSpec) { f.Filter = "b" }), whole, Int64), false},
		{"FILTER on the permutation tree", planned(fn(Lead), whole, Int64),
			planned(with(fn(Lead), func(f *FuncSpec) { f.Filter = "b" }), whole, Int64), false},
		{"COUNT(DISTINCT) argument", planned(fn(CountDistinct), whole, Int64),
			planned(with(fn(CountDistinct), func(f *FuncSpec) { f.Arg = "d" }), whole, Int64), false},
		{"SUM(DISTINCT) argument", planned(fn(SumDistinct), whole, Int64),
			planned(with(fn(SumDistinct), func(f *FuncSpec) { f.Arg = "d" }), whole, Int64), false},
		{"int and float SUM(DISTINCT)", planned(fn(SumDistinct), whole, Int64), planned(fn(SumDistinct), whole, Float64), false},
		{"float SUM and AVG(DISTINCT)", planned(fn(SumDistinct), whole, Float64), planned(fn(AvgDistinct), whole, Float64), false},
		{"int SUM and AVG(DISTINCT)", planned(fn(SumDistinct), whole, Int64), planned(fn(AvgDistinct), whole, Int64), false},
		{"IGNORE NULLS", planned(fn(FirstValue), whole, Int64),
			planned(with(fn(FirstValue), func(f *FuncSpec) { f.IgnoreNulls = true }), whole, Int64), false},
		{"function ORDER BY", planned(fn(Rank), whole, Int64),
			planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = []SortKey{{Column: "v", Desc: true}} }), whole, Int64), false},
		{"window ORDER BY fallback", planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = nil }), whole, Int64),
			planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = byD }), whole, Int64), true},
	} {
		if got := c.a == c.b; got != c.same {
			t.Errorf("%s: same = %v, want %v\n a: %s\n b: %s", c.name, got, c.same, c.a, c.b)
		}
	}

	// Where a structure lives: partition content, executed sort, delta
	// stamp and the tree options that shape a tree split a key; how the
	// build is scheduled does not.
	w := &WindowSpec{OrderBy: byD}
	at := func(p *partition, opt Options) string {
		f := fn(Rank)
		s := structureOf(&f, w.OrderBy, Int64)
		s.Part = p.id
		s.sized(1000, opt)
		opt.CacheScope = "t@v1"
		return s.key(opt)
	}
	p0 := &partition{w: w, id: "sort|pk=i1;|pd0"}
	base := at(p0, Options{})
	for _, c := range []struct {
		name string
		key  string
		same bool
	}{
		{"partition content", at(&partition{w: w, id: "sort|pk=i2;|pd0"}, Options{}), false},
		{"executed sort", at(&partition{w: w, id: "sort|o=\"v\"+,|pk=i1;|pd0"}, Options{}), false},
		{"delta stamp", at(&partition{w: w, id: "sort|pk=i1;|pd4"}, Options{}), false},
		{"fanout", at(p0, Options{Tree: mst.Options{Fanout: 32}}), false},
		{"sampling", at(p0, Options{Tree: mst.Options{SampleEvery: 8}}), false},
		{"no cascading", at(p0, Options{Tree: mst.Options{NoCascading: true}}), false},
		{"build context and trace", at(p0, Options{Tree: mst.Options{Context: parallel.ContextWithLimit(context.Background(), 1), Trace: obs.NewSpan("build")}}), true},
	} {
		if got := c.key == base; got != c.same {
			t.Errorf("%s: same = %v, want %v\n base: %s\n key:  %s", c.name, got, c.same, base, c.key)
		}
	}
	stamped := at(&partition{w: w, id: "sort|pk=i1;|pd4"}, Options{})
	if other := at(&partition{w: w, id: "sort|pk=i1;|pd5"}, Options{}); other == stamped {
		t.Errorf("a partition's last-change stamp does not split its key: %s", stamped)
	}

	// A result key differs whenever any probe field differs.
	probe := FuncSpec{Name: PercentileDisc, Output: "x", Arg: "v", OrderBy: byV, Fraction: 0.5, N: 2, Filter: "b"}
	spec := frame.Spec{Mode: frame.Rows,
		Start: frame.Bound{Type: frame.Preceding, Offset: 3}, End: frame.Bound{Type: frame.Following, Offset: 1}}
	result := func(f FuncSpec, spec frame.Spec) string {
		s := resultOf(p0, &f, spec)
		return s.key(Options{CacheScope: "t@v1"})
	}
	want := result(probe, spec)
	if again := result(with(probe, func(f *FuncSpec) { f.Output = "y" }), spec); again != want {
		t.Errorf("the output name splits a result key:\n %s\n %s", want, again)
	}
	for name, f := range map[string]FuncSpec{
		"function":     with(probe, func(f *FuncSpec) { f.Name = PercentileCont }),
		"argument":     with(probe, func(f *FuncSpec) { f.Arg = "fv" }),
		"ORDER BY":     with(probe, func(f *FuncSpec) { f.OrderBy = []SortKey{{Column: "v", Desc: true}} }),
		"fraction":     with(probe, func(f *FuncSpec) { f.Fraction = 0.25 }),
		"offset":       with(probe, func(f *FuncSpec) { f.N = 3 }),
		"FILTER":       with(probe, func(f *FuncSpec) { f.Filter = "" }),
		"IGNORE NULLS": with(probe, func(f *FuncSpec) { f.IgnoreNulls = true }),
	} {
		if got := result(f, spec); got == want {
			t.Errorf("result key ignores the %s: %s", name, got)
		}
	}
	for name, edit := range map[string]func(*frame.Spec){
		"frame mode":   func(s *frame.Spec) { s.Mode = frame.Groups },
		"start type":   func(s *frame.Spec) { s.Start.Type = frame.Following },
		"start offset": func(s *frame.Spec) { s.Start.Offset = 4 },
		"end type":     func(s *frame.Spec) { s.End.Type = frame.Preceding },
		"end offset":   func(s *frame.Spec) { s.End.Offset = 2 },
		"exclusion":    func(s *frame.Spec) { s.Exclude = frame.ExcludeTies },
	} {
		changed := spec
		edit(&changed)
		if got := result(probe, changed); got == want {
			t.Errorf("result key ignores the %s: %s", name, got)
		}
	}
}

// TestEpochBumpKeepsKeys runs one delta statement at epoch 3 and again at
// epoch 5 over the same overlay, each on a cold cache. A key names content
// only, and the content is the same, so both epochs ask for the same keys —
// the frozen sort, and per partition its structures and result entries
// under its last-change stamp — and none of them renders the view's epoch.
func TestEpochBumpKeepsKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	merged := randTable(rng, 300)
	var dirty []int32
	for m := 0; m < merged.Rows(); m += 7 {
		dirty = append(dirty, int32(m))
	}
	dv := deltaViewOver(merged, dirty, rng)
	dv.DirtyEpochs = make([]int64, len(dv.Dirty))
	for i := range dv.DirtyEpochs {
		dv.DirtyEpochs[i] = int64(1 + i%2)
	}
	w := &WindowSpec{PartitionBy: []string{"g"}, OrderBy: []SortKey{{Column: "d"}}, Funcs: []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: Rank, Output: "r", OrderBy: []SortKey{{Column: "v"}}},
	}}
	keysAt := func(epoch int64) map[string]bool {
		rc := newRecordingCache() // cold: every structure is asked for
		dv.Epoch = epoch
		if _, err := Run(merged, w, Options{Cache: rc, CacheScope: "t@v1|g2", Delta: dv}); err != nil {
			t.Fatal(err)
		}
		return rc.keys
	}
	old, current := keysAt(3), keysAt(5)
	if !maps.Equal(old, current) {
		t.Fatalf("epochs 3 and 5 ask for different keys:\n %v\n %v", old, current)
	}
	// One sort, then per partition (g takes three values) two structures
	// and two result entries.
	if len(old) != 1+3*4 {
		t.Fatalf("asked for %d keys, want 13:\n%v", len(old), old)
	}
	epochComponent := regexp.MustCompile(`\|e[0-9]+\|`)
	stamped := 0
	for key := range old {
		if epochComponent.MatchString(key) {
			t.Errorf("key %q names an epoch", key)
		}
		if strings.Contains(key, "|pd1|") || strings.Contains(key, "|pd2|") {
			stamped++
		}
	}
	if stamped == 0 {
		t.Errorf("no key carries an overlay stamp:\n%v", old)
	}
}

// TestCleanViewKeysMatchPlainRun runs one statement over a table plainly and
// through a delta view with nothing dirty, each on a cold cache under one
// scope. The scope names the same table either way, so both runs ask for
// the same keys: one sort and the same partition ids.
func TestCleanViewKeysMatchPlainRun(t *testing.T) {
	tab := randTable(rand.New(rand.NewSource(43)), 300)
	w := &WindowSpec{PartitionBy: []string{"g"}, OrderBy: []SortKey{{Column: "d"}}, Funcs: []FuncSpec{
		{Name: CountDistinct, Output: "cd", Arg: "v"},
		{Name: PercentileDisc, Output: "p", Fraction: 0.5, OrderBy: []SortKey{{Column: "v"}}},
	}}
	keys := func(dv *DeltaView) map[string]bool {
		rc := newRecordingCache()
		if _, err := Run(tab, w, Options{Cache: rc, CacheScope: "t@v1|g0", Delta: dv}); err != nil {
			t.Fatal(err)
		}
		return rc.keys
	}
	plain, delta := keys(nil), keys(cleanView(tab))
	if !maps.Equal(plain, delta) {
		t.Fatalf("a plain run and a clean delta run ask for different keys:\n plain %v\n delta %v", plain, delta)
	}
	if len(plain) != 1+3*2 {
		t.Fatalf("asked for %d keys, want one sort and two structures per partition:\n%v", len(plain), plain)
	}
}
