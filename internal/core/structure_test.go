package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"holistic/internal/frame"
)

// TestStructureIdentity pins which functions share a structure and which
// fields split one, as pairs of rendered identities that must be equal or
// must differ: the planner's (StructureOf) for the functions, a partition's
// key for where a structure lives and for the result entries.
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
	planned := func(f FuncSpec, spec frame.Spec) string {
		s := StructureOf(&f, byD, spec)
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
		{"RANK and PERCENT_RANK", planned(fn(Rank), whole), planned(fn(PercentRank), whole), true},
		{"RANK and CUME_DIST", planned(fn(Rank), whole), planned(fn(CumeDist), whole), true},
		{"ROW_NUMBER and NTILE", planned(fn(RowNumber), whole), planned(fn(Ntile), whole), true},
		{"RANK and ROW_NUMBER", planned(fn(Rank), whole), planned(fn(RowNumber), whole), false},
		{"RANK and DENSE_RANK", planned(fn(Rank), whole), planned(fn(DenseRank), whole), false},
		{"percentile fraction",
			planned(with(fn(PercentileDisc), func(f *FuncSpec) { f.Fraction = 0.5 }), whole),
			planned(with(fn(PercentileCont), func(f *FuncSpec) { f.Fraction = 0.9 }), whole), true},
		{"LEAD and LAG offsets",
			planned(with(fn(Lead), func(f *FuncSpec) { f.N = 1 }), whole),
			planned(with(fn(Lag), func(f *FuncSpec) { f.N = 3 }), whole), true},
		{"LAST_VALUE and LAG", planned(fn(LastValue), whole), planned(fn(Lag), whole), true},
		{"NTH_VALUE argument", planned(fn(NthValue), whole),
			planned(with(fn(NthValue), func(f *FuncSpec) { f.Arg = "fv" }), whole), true},
		{"leaf frame offsets", planned(fn(CountDistinct), rows(3, 0)), planned(fn(CountDistinct), rows(10, 5)), true},
		{"full frame offsets", planned(fn(Rank), rows(300, 0)), planned(fn(Rank), rows(1000, 20)), true},
		{"full frame and whole partition", planned(fn(Rank), rows(300, 0)), planned(fn(Rank), whole), true},
		{"permutation tree over any frame", planned(fn(FirstValue), rows(3, 0)), planned(fn(FirstValue), whole), true},
		{"width class", planned(fn(CountDistinct), rows(5, 0)), planned(fn(CountDistinct), unbounded), false},
		{"SUM(DISTINCT) width class", planned(fn(SumDistinct), rows(5, 0)), planned(fn(SumDistinct), whole), false},
		{"sliding bounds", planned(fn(CountDistinct), rows(200, 0)), planned(fn(CountDistinct), rows(300, 0)), false},
		{"FILTER on COUNT(DISTINCT)", planned(fn(CountDistinct), whole),
			planned(with(fn(CountDistinct), func(f *FuncSpec) { f.Filter = "b" }), whole), false},
		{"FILTER on RANK", planned(fn(Rank), whole),
			planned(with(fn(Rank), func(f *FuncSpec) { f.Filter = "b" }), whole), false},
		{"FILTER on the permutation tree", planned(fn(Lead), whole),
			planned(with(fn(Lead), func(f *FuncSpec) { f.Filter = "b" }), whole), false},
		{"COUNT(DISTINCT) argument", planned(fn(CountDistinct), whole),
			planned(with(fn(CountDistinct), func(f *FuncSpec) { f.Arg = "d" }), whole), false},
		{"SUM(DISTINCT) argument", planned(fn(SumDistinct), whole),
			planned(with(fn(SumDistinct), func(f *FuncSpec) { f.Arg = "d" }), whole), false},
		{"SUM and AVG(DISTINCT)", planned(fn(SumDistinct), whole), planned(fn(AvgDistinct), whole), true},
		{"MIN and FIRST_VALUE IGNORE NULLS", planned(fn(Min), rows(3, 0)),
			planned(with(fn(FirstValue), func(f *FuncSpec) { f.IgnoreNulls = true }), whole), true},
		{"MAX and PERCENTILE_DISC", planned(fn(Max), whole), planned(fn(PercentileDisc), rows(300, 0)), true},
		{"MIN and MAX", planned(fn(Min), whole), planned(fn(Max), unbounded), true},
		{"MIN argument", planned(fn(Min), whole), planned(with(fn(Min), func(f *FuncSpec) { f.Arg = "fv" }), whole), false},
		{"SUM and AVG over any frame", planned(fn(Sum), rows(3, 0)), planned(fn(Avg), whole), true},
		{"SUM and SUM(DISTINCT)", planned(fn(Sum), whole), planned(fn(SumDistinct), whole), false},
		{"FILTER on SUM", planned(fn(Sum), whole), planned(with(fn(Sum), func(f *FuncSpec) { f.Filter = "b" }), whole), false},
		{"IGNORE NULLS", planned(fn(FirstValue), whole),
			planned(with(fn(FirstValue), func(f *FuncSpec) { f.IgnoreNulls = true }), whole), false},
		{"function ORDER BY", planned(fn(Rank), whole),
			planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = []SortKey{{Column: "v", Desc: true}} }), whole), false},
		{"window ORDER BY fallback", planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = nil }), whole),
			planned(with(fn(Rank), func(f *FuncSpec) { f.OrderBy = byD }), whole), true},
	} {
		if got := c.a == c.b; got != c.same {
			t.Errorf("%s: same = %v, want %v\n a: %s\n b: %s", c.name, got, c.same, c.a, c.b)
		}
	}

	// Where a structure lives: partition content, executed sort and delta
	// stamp split a key.
	w := &WindowSpec{OrderBy: byD}
	at := func(p *partition) string {
		f := fn(Rank)
		s := structureOf(&f, w.OrderBy)
		s.Part = p.id
		s.sized(1000, Options{})
		return s.key("t@v1")
	}
	p0 := &partition{w: w, id: "sort|pk=i1;|pd0"}
	base := at(p0)
	for _, c := range []struct {
		name string
		key  string
		same bool
	}{
		{"partition content", at(&partition{w: w, id: "sort|pk=i2;|pd0"}), false},
		{"executed sort", at(&partition{w: w, id: "sort|o=\"v\"+,|pk=i1;|pd0"}), false},
		{"delta stamp", at(&partition{w: w, id: "sort|pk=i1;|pd4"}), false},
	} {
		if got := c.key == base; got != c.same {
			t.Errorf("%s: same = %v, want %v\n base: %s\n key:  %s", c.name, got, c.same, base, c.key)
		}
	}
	stamped := at(&partition{w: w, id: "sort|pk=i1;|pd4"})
	if other := at(&partition{w: w, id: "sort|pk=i1;|pd5"}); other == stamped {
		t.Errorf("a partition's last-change stamp does not split its key: %s", stamped)
	}

	// Windows of one shared group see one partition id under their own
	// ORDER BY, which draws the peer groups their frames are cut along.
	probe := FuncSpec{Name: PercentileDisc, Output: "x", Arg: "v", OrderBy: byV, Fraction: 0.5, N: 2, Filter: "b"}
	spec := rows(3, 1)
	for _, order := range [][]SortKey{nil, {{Column: "d"}, {Column: "v"}}} {
		refined := &partition{w: &WindowSpec{OrderBy: order}, id: p0.id}
		for _, f := range []FuncSpec{probe, {Name: Min, Output: "m", Arg: "v"}} {
			s, again := resultOf(refined, &f, spec), resultOf(p0, &f, spec)
			if got := s.key("t@v1"); got == again.key("t@v1") {
				t.Errorf("%v: result key ignores the window ORDER BY %v: %s", f.Name, order, got)
			}
		}
	}
}

// TestResultKeyCoversEveryField changes the fields of a result entry's
// inputs one at a time — every field of the function (FuncSpec) and of its
// resolved frame (frame.Spec and its two frame.Bounds), found by reflection —
// and requires each change to change the key. Three fields are not keyed:
// Output names where an answer goes, not what it is, so a change to it must
// leave the key as it was (two items that differ only in alias share one
// entry); FuncSpec.Frame is resolved into the frame resultOf takes; and a
// bound's OffsetFn, a per-row offset, keeps a result out of the cache. A
// field added later without being keyed fails here.
func TestResultKeyCoversEveryField(t *testing.T) {
	unkeyed := map[string]bool{"FuncSpec.Output": true, "FuncSpec.Frame": true, "Bound.OffsetFn": true}
	f := FuncSpec{Name: PercentileDisc, Output: "x", Arg: "v", OrderBy: []SortKey{{Column: "v"}}, Fraction: 0.5, N: 2, Filter: "b"}
	spec := frame.Spec{Mode: frame.Rows,
		Start: frame.Bound{Type: frame.Preceding, Offset: 3}, End: frame.Bound{Type: frame.Following, Offset: 1}}
	p := &partition{w: &WindowSpec{OrderBy: []SortKey{{Column: "d"}}}, id: "sort|pk=i1;|pd0"}
	key := func() string {
		s := resultOf(p, &f, spec)
		return s.key("t@v1")
	}
	want := key()
	seen := map[string]bool{}
	// vary changes each field of the struct v, at path, in turn, requires
	// the key to change (or, for an unkeyed field, to stay) and restores the
	// field. The unkeyed pointer and func fields are not changed.
	var vary func(path string, v reflect.Value)
	vary = func(path string, v reflect.Value) {
		for i := range v.NumField() {
			fv, name := v.Field(i), v.Type().Name()+"."+v.Type().Field(i).Name
			at := path + "." + v.Type().Field(i).Name
			if unkeyed[name] {
				seen[name] = true
				if k := fv.Kind(); k == reflect.Pointer || k == reflect.Func {
					continue
				}
			}
			old := reflect.ValueOf(fv.Interface())
			changed := func() {
				switch got := key(); {
				case unkeyed[name] && got != want:
					t.Errorf("%s splits the result key:\n %s\n %s", at, want, got)
				case !unkeyed[name] && got == want:
					t.Errorf("the result key ignores %s: %s", at, got)
				}
				fv.Set(old)
			}
			switch fv.Kind() {
			case reflect.String:
				fv.SetString(fv.String() + "x")
				changed()
			case reflect.Int, reflect.Int64:
				fv.SetInt(fv.Int() + 1)
				changed()
			case reflect.Float64:
				fv.SetFloat(fv.Float() + 0.125)
				changed()
			case reflect.Bool:
				fv.SetBool(!fv.Bool())
				changed()
			case reflect.Struct:
				vary(at, fv)
			case reflect.Slice: // one element more, then each field of a copy's first
				fv.Set(reflect.Append(fv, fv.Index(0)))
				changed()
				fv.Set(reflect.AppendSlice(reflect.MakeSlice(fv.Type(), 0, fv.Len()), fv))
				vary(at+"[0]", fv.Index(0))
				fv.Set(old)
			default:
				t.Errorf("%s is a %s field, which this test cannot change: key it and teach the test to change it, or name it unkeyed", at, fv.Kind())
			}
		}
	}
	vary("FuncSpec", reflect.ValueOf(&f).Elem())
	vary("Spec", reflect.ValueOf(&spec).Elem())
	for name := range unkeyed {
		if !seen[name] {
			t.Errorf("the unkeyed field %s does not exist", name)
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

// TestResultKeyNamesWindowOrder runs, as one shared-sort delta statement,
// MIN(v) and a median ordered by v under ORDER BY d and again under ORDER
// BY d, e, each over GROUPS BETWEEN 1 PRECEDING AND CURRENT ROW. Both
// windows run over the refined (d, e) sort, so their partitions share one
// id, and their functions build in the order of v whatever the window's.
// Yet the peer groups differ wherever d ties, so the answers do too: a
// result entry must name the window's ORDER BY, or one window is served the
// other's answers.
func TestResultKeyNamesWindowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 200
	g, d, e, v := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range n {
		g[i], d[i], e[i], v[i] = rng.Int63n(2), rng.Int63n(8), rng.Int63n(5), rng.Int63n(50)
	}
	tab := MustNewTable(NewInt64Column("g", g, nil), NewInt64Column("d", d, nil),
		NewInt64Column("e", e, nil), NewInt64Column("v", v, nil))
	byV := []SortKey{{Column: "v"}}
	window := func(order ...string) *WindowSpec {
		w := &WindowSpec{PartitionBy: []string{"g"}, FrameSet: true, Frame: frame.Spec{Mode: frame.Groups,
			Start: frame.Bound{Type: frame.Preceding, Offset: 1}, End: frame.Bound{Type: frame.CurrentRow}}, Funcs: []FuncSpec{
			{Name: Min, Output: "min", Arg: "v"},
			{Name: PercentileDisc, Output: "median", Fraction: 0.5, OrderBy: byV},
		}}
		for _, c := range order {
			w.OrderBy = append(w.OrderBy, SortKey{Column: c})
		}
		return w
	}
	coarse, fine := window("d"), window("d", "e")
	view := cleanView(tab)
	view.Epoch = 1 // a mutated dataset: result entries are admitted
	rc := newRecordingCache()
	res, err := RunShared(tab, fine.PartitionBy, fine.OrderBy, []*WindowSpec{coarse, fine},
		Options{Cache: rc, CacheScope: "t@v1|g0", Delta: view})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []*WindowSpec{coarse, fine} {
		for j := range w.Funcs {
			f := &w.Funcs[j]
			compareToReference(t, tab, w, f, res[i].Column(f.Output), fmt.Sprintf("ORDER BY %v: %s", w.OrderBy, f.Output))
		}
	}
	results := 0
	for key := range rc.keys {
		if strings.Contains(key, "|"+tagResult+"|") {
			results++
		}
	}
	if want := 2 * 2 * 2; results != want { // two partitions, two windows, two functions
		t.Errorf("asked for %d result entries, want %d:\n%v", results, want, rc.keys)
	}
}
