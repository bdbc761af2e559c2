package plan_test

import (
	"math/rand"
	"strings"
	"testing"

	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/lattice"
	"holistic/internal/obs"
	"holistic/internal/plan"
)

// TestSharedPlanEquivalenceRandomized is plan's part of the lattice: random
// window shapes — equal windows under different partition listings,
// prefix-compatible orders, unordered windows — with every supported function
// spread across them. The RAM points run the statement planned shared and
// unshared (Options.NoSharedPlan), and the two must agree bit for bit: a
// divergence means the optimizer shared something order-sensitive or
// crossed a cache key.
func TestSharedPlanEquivalenceRandomized(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 4
	}
	lattice.Rig{Seed: 909, Trials: trials, Storage: []lattice.Storage{lattice.RAM}}.Run(t)
}

// pinnedStatement is the fixed statement of the stats/DAG pin tests: one
// partition set, a two-key window, a compatible one-key prefix window used
// by two deduplicated frame variants, and a repeated distinct-count
// structure shared across windows.
func pinnedStatement() *plan.Statement {
	groupsFrame := func(before, after int64) *frame.Spec {
		return &frame.Spec{
			Mode:  frame.Groups,
			Start: frame.Bound{Type: frame.Preceding, Offset: before},
			End:   frame.Bound{Type: frame.Following, Offset: after},
		}
	}
	return &plan.Statement{Table: "t", Items: []plan.Item{
		{Name: "g", SrcColumn: "g"},
		{
			Name:        "total",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
			Func:        &core.FuncSpec{Name: core.CountStar, Output: "total", Frame: groupsFrame(2, 0)},
		},
		{
			Name:        "cd1",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
			Func:        &core.FuncSpec{Name: core.CountDistinct, Output: "cd1", Arg: "v", Frame: groupsFrame(3, 3)},
		},
		{
			Name:        "cd2",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Func:        &core.FuncSpec{Name: core.CountDistinct, Output: "cd2", Arg: "v", Frame: groupsFrame(1, 1)},
		},
		{
			Name:        "cnt2",
			PartitionBy: []string{"g"},
			OrderBy:     []core.SortKey{{Column: "d"}},
			Func:        &core.FuncSpec{Name: core.CountStar, Output: "cnt2", Frame: groupsFrame(0, 2)},
		},
	}}
}

// TestPlanStatsPinned pins the dedup counters of the pinned statement: the
// one-key windows join the two-key sort (one sort shared), and the second
// distinct-count reuses the first one's preprocessing and tree.
func TestPlanStatsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := lattice.RandTable(rng, 50)
	p, err := plan.Build(pinnedStatement())
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Stats{Operators: 8, SortsShared: 1, TreesShared: 1, PreprocessShared: 2}
	if p.Stats != want {
		t.Fatalf("stats = %+v, want %+v", p.Stats, want)
	}

	// Executing the plan advances the process counters by exactly the plan's
	// stats; the NoSharedPlan run must leave them untouched.
	before := sharingCounters(t)
	if _, _, err := p.Execute(tab, core.Options{}); err != nil {
		t.Fatal(err)
	}
	after := sharingCounters(t)
	if want := [3]float64{before[0] + 1, before[1] + 1, before[2] + 2}; after != want {
		t.Fatalf("counters %v -> %v, want +{1 1 2}", before, after)
	}
	if _, _, err := p.Execute(tab, core.Options{NoSharedPlan: true}); err != nil {
		t.Fatal(err)
	}
	if got := sharingCounters(t); got != after {
		t.Fatalf("NoSharedPlan run moved the counters: %v -> %v", after, got)
	}
}

// sharingCounters scrapes the process-wide windowd_plan_shared_{sorts,
// trees,preprocess} counters from obs.Default.
func sharingCounters(t *testing.T) (out [3]float64) {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"windowd_plan_shared_sorts", "windowd_plan_shared_trees", "windowd_plan_shared_preprocess"} {
		v, ok := m.Value(name)
		if !ok {
			t.Fatalf("obs.Default lacks %s", name)
		}
		out[i] = v
	}
	return out
}

// TestPlanDAGGolden pins the DAG rendering of the pinned statement: node
// identities, execution order, inputs and shared-by annotations.
func TestPlanDAGGolden(t *testing.T) {
	p, err := plan.Build(pinnedStatement())
	if err != nil {
		t.Fatal(err)
	}
	want := `[sort0] sort: parallel sort by partition (g), order (d, v)  [shared by total, cd1, cd2, cnt2]
  [part0] partitions: partition boundaries  <- sort0  [shared by total, cd1, cd2, cnt2]
    [probe_total] probe: count(*) → total: groups 2 preceding .. 0 following  <- part0
  [pre0_0] preprocess: prevIdcs occurrence links (Alg. 1) over v  <- part0  [shared by cd1, cd2]
  [tree0_0] tree: merge sort tree over prevIdcs(v)  <- pre0_0  [shared by cd1, cd2]
    [probe_cd1] probe: count(distinct) → cd1: groups 3 preceding .. 3 following  <- tree0_0
    [probe_cd2] probe: count(distinct) → cd2: groups 1 preceding .. 1 following  <- tree0_0
    [probe_cnt2] probe: count(*) → cnt2: groups 0 preceding .. 2 following  <- part0
`
	if got := plan.RenderText(p.Nodes); got != want {
		t.Fatalf("DAG mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFloatSharingGate pins that the soundness gate has no function arm
// left: a strict-prefix window joins the longer sort whatever its function
// and argument kind. A float MIN shares too: −0.0 and +0.0 (and NaN
// payloads) compare equal, but MIN/MAX break ties between equal values by
// table row, so the winner is the same under any window order; a SUM of
// either kind shares because no order reaches an exact sum.
func TestFloatSharingGate(t *testing.T) {
	build := func(name core.FuncName, arg string) plan.Stats {
		stmt := &plan.Statement{Table: "t", Items: []plan.Item{
			{
				Name:        "r",
				PartitionBy: []string{"g"},
				OrderBy:     []core.SortKey{{Column: "d"}, {Column: "v"}},
				Func: &core.FuncSpec{Name: core.Rank, Output: "r",
					OrderBy: []core.SortKey{{Column: "v"}},
					Frame:   &frame.Spec{Mode: frame.Groups, Start: frame.Bound{Type: frame.UnboundedPreceding}, End: frame.Bound{Type: frame.CurrentRow}}},
			},
			{
				Name:        "s",
				PartitionBy: []string{"g"},
				OrderBy:     []core.SortKey{{Column: "d"}},
				Func:        &core.FuncSpec{Name: name, Output: "s", Arg: arg},
			},
		}}
		p, err := plan.Build(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return p.Stats
	}
	for _, c := range []struct {
		name   core.FuncName
		arg    string
		shared int
	}{{core.Min, "v", 1}, {core.Min, "fv", 1}, {core.Max, "fv", 1}, {core.Sum, "v", 1}, {core.Sum, "fv", 1}, {core.Avg, "fv", 1}} {
		if st := build(c.name, c.arg); st.SortsShared != c.shared {
			t.Errorf("%v(%s): SortsShared = %d, want %d (%+v)", c.name, c.arg, st.SortsShared, c.shared, st)
		}
	}
}
