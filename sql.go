package holistic

import (
	"holistic/internal/core"
	"holistic/internal/plan"
	"holistic/internal/sqlparse"
)

// RunSQL parses and evaluates one SELECT statement written in the SQL
// dialect the paper proposes (§2.4): window functions compose freely with
// frames, DISTINCT arguments, function-level ORDER BY, FILTER and
// IGNORE NULLS. The statement's FROM clause names a key of tables.
//
//	res, err := holistic.RunSQL(`
//	    select dbsystem, tps,
//	           count(distinct dbsystem) over w,
//	           rank(order by tps desc) over w as r
//	    from tpcc_results
//	    window w as (order by submission_date
//	                 range between unbounded preceding and current row)`,
//	    map[string]*holistic.Table{"tpcc_results": table})
//
// The result table holds one column per select-list item in select order;
// unaliased function calls are named after the function, uniquified with a
// numeric suffix on collision. Interval literals like '1 month' in RANGE
// offsets are converted to day counts (day/week/month≈30/year≈365), since
// the examples' order keys are day numbers.
//
// Functions sharing a window definition are evaluated by one window
// operator invocation, so partitioning and sorting happen once per distinct
// window (the Kohn et al. optimization §3.1 cites).
func RunSQL(query string, tables map[string]*Table) (*Table, error) {
	return RunSQLOptions(query, tables, Options{})
}

// RunSQLOptions is RunSQL with explicit execution options.
func RunSQLOptions(query string, tables map[string]*Table, opt Options) (*Table, error) {
	q, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	src := make(map[string]*core.Table, len(tables))
	for name, t := range tables {
		src[name] = t
	}
	return sqlparse.Execute(q, src, opt)
}

// PlanNode is one operator of a statement's shared-plan DAG (see PlanSQL).
type PlanNode = plan.Node

// PlanStats summarizes a plan's sharing: DAG node count and the sorts,
// trees and preprocessing passes the optimizer eliminated.
type PlanStats = plan.Stats

// SQLPlan is the structured form of a statement's evaluation plan: the
// operator DAG in execution order (inputs precede consumers) and the
// sharing stats. Render the DAG as indented text with RenderPlan.
type SQLPlan struct {
	Nodes []PlanNode
	Stats PlanStats
}

// PlanSQL runs the shared-plan optimizer over a statement without executing
// it and returns the structured plan DAG: one sort node per shared-sort
// cluster, partition-boundary, preprocessing and tree nodes annotated with
// every function that consumes them, and one probe node per function (the
// /v1/explain plan_dag field, locally; RenderPlan renders it). The plan
// reads no column type, so it needs no table.
func PlanSQL(query string) (*SQLPlan, error) {
	q, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	p, err := sqlparse.BuildPlan(q, nil)
	if err != nil {
		return nil, err
	}
	return &SQLPlan{Nodes: p.Nodes, Stats: p.Stats}, nil
}

// RenderPlan renders a plan DAG as indented text with shared-node
// annotations (the windowcli -explain view).
func RenderPlan(nodes []PlanNode) string {
	return plan.RenderText(nodes)
}
