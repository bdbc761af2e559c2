package sqlparse

import (
	"strings"
	"testing"

	"holistic/internal/core"
	"holistic/internal/obs"
)

// TestPlanMatchesBuilds checks the plan DAG against what executing the
// statement builds: over one partition wider than mst.LeafRows, with the
// fresh run-local cache core.RunShared installs, the number of "build merge
// sort tree" phases run must equal the number of the DAG's cached tree
// nodes, and trees_shared must count every other function fed by one.
func TestPlanMatchesBuilds(t *testing.T) {
	const n = 600
	d, v, fv := make([]int64, n), make([]int64, n), make([]float64, n)
	vNull, b := make([]bool, n), make([]bool, n)
	for i := range d {
		d[i] = int64(i)
		v[i] = int64(i*7919) % 37
		vNull[i] = i%11 == 0
		fv[i] = float64(i%23) / 4
		b[i] = i%3 != 0
	}
	table := core.MustNewTable(
		core.NewInt64Column("d", d, nil),
		core.NewInt64Column("v", v, vNull),
		core.NewFloat64Column("fv", fv, nil),
		core.NewBoolColumn("b", b, nil),
	)
	for _, c := range []struct {
		name   string
		sql    string
		builds int
	}{
		{"leaf and full COUNT(DISTINCT)", `select
			count(distinct v) over (order by d rows 5 preceding) as a,
			count(distinct v) over (order by d rows unbounded preceding) as b
			from t`, 2},
		{"LAST_VALUE beside LAG", `select
			last_value(v) over (order by d) as a,
			lag(v) over (order by d) as b
			from t`, 1},
		{"value functions, percentiles and LEAD over one permutation", `select
			first_value(v) ignore nulls over (order by v rows 3 preceding) as a,
			percentile_disc(0.5 order by v) over (order by v rows between 10 preceding and 10 following) as b,
			lead(v, 2) ignore nulls over (order by v) as c,
			nth_value(v, 2) over (order by v) as e
			from t`, 2},
		{"rank family", `select
			rank() over (order by d) as a,
			percent_rank() over (order by d) as b,
			cume_dist() over (order by d rows 3 preceding) as c,
			row_number() over (order by d) as e,
			ntile(4) over (order by d) as f,
			sum(v) over (order by d) as g
			from t`, 3},
		{"sliding COUNT(DISTINCT) of one row bound", `select
			count(distinct v) over (order by d rows 200 preceding) as a,
			count(distinct v) over (order by d rows between 100 preceding and 100 following) as b,
			count(distinct v) filter (where b) over (order by d rows 200 preceding) as c
			from t`, 2},
		{"DISTINCT sums by state and width", `select
			sum(distinct v) over (order by d rows 5 preceding) as a,
			sum(distinct v) over (order by d rows unbounded preceding) as b,
			sum(distinct fv) over (order by d rows 5 preceding) as c,
			sum(distinct fv) over (order by d rows unbounded preceding) as e,
			avg(distinct fv) over (order by d) as f
			from t`, 4},
		{"DENSE_RANK by width", `select
			dense_rank() over (order by d rows 5 preceding) as a,
			dense_rank() over (order by d) as b,
			dense_rank() over (order by d groups 2 preceding) as c
			from t`, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuildPlan(q, table)
			if err != nil {
				t.Fatal(err)
			}
			trees := map[string]bool{}
			for _, node := range p.Nodes {
				if node.Kind == "tree" && !strings.HasPrefix(node.Label, "segment tree") {
					trees[node.ID] = true
				}
			}
			fed := 0
			for _, node := range p.Nodes {
				if node.Kind == "probe" && trees[node.Inputs[0]] {
					fed++
				}
			}

			root := obs.NewSpan("statement")
			_, stats, err := ExecutePlanned(q, map[string]*core.Table{"t": table}, core.Options{Trace: root})
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			builds := 0
			root.Walk(func(sp *obs.Span, _ int) {
				if sp.Name() == "build merge sort tree" {
					builds += sp.Count()
				}
			})
			if builds != c.builds || len(trees) != builds || stats.TreesShared != fed-builds {
				t.Errorf("%d builds (want %d); the DAG has %d cached trees feeding %d functions, trees_shared=%d (want %d)",
					builds, c.builds, len(trees), fed, stats.TreesShared, fed-builds)
			}
		})
	}
}
