package sqlparse

import (
	"fmt"

	"holistic/internal/core"
	"holistic/internal/frame"
	"holistic/internal/plan"
)

// Execute runs a parsed query against the named tables and returns a result
// table with one column per select-list item, in select order.
//
// Execution goes through the shared-plan optimizer (internal/plan): windows
// sharing a definition evaluate in one operator invocation, compatible
// windows cluster under one sort, and tree structures are shared across
// functions — the duplicated-work avoidance of Kohn et al. and Cao et al.
// that §3.1 cites as complementary to the paper, generalized to prefix-
// compatible orders.
func Execute(q *Query, tables map[string]*core.Table, opt core.Options) (*core.Table, error) {
	out, _, err := ExecutePlanned(q, tables, opt)
	return out, err
}

// ExecutePlanned is Execute plus the plan's sharing statistics (operator
// count, sorts/trees/preprocessing shared) for callers that surface them,
// like windowd's query stats.
func ExecutePlanned(q *Query, tables map[string]*core.Table, opt core.Options) (*core.Table, plan.Stats, error) {
	src, ok := tables[q.From]
	if !ok {
		return nil, plan.Stats{}, fmt.Errorf("sql: unknown table %q", q.From)
	}
	for i := range q.Items {
		item := &q.Items[i]
		if item.Func == nil && src.Column(item.Column) == nil {
			return nil, plan.Stats{}, fmt.Errorf("sql: unknown column %q", item.Column)
		}
	}
	p, err := BuildPlan(q, src)
	if err != nil {
		return nil, plan.Stats{}, err
	}
	return p.Execute(src, opt)
}

// BuildPlan runs the shared-plan optimizer over a parsed query. The table
// supplies column kinds for the planner's float-sensitivity gate; it may be
// nil (explaining without data), which keeps the planner conservative about
// sharing sorts under SUM/MIN/MAX.
func BuildPlan(q *Query, t *core.Table) (*plan.Plan, error) {
	stmt, err := toStatement(q)
	if err != nil {
		return nil, err
	}
	var kinds plan.KindResolver
	if t != nil {
		kinds = plan.TableKinds(t)
	}
	return plan.Build(stmt, kinds)
}

// toStatement converts a parsed query to planner form: output names
// assigned (aliases win; defaults are the function or column name,
// uniquified), function specs bound, and every function's frame resolved
// explicitly — a missing frame clause means SQL's default frame, which
// depends on the window's ORDER BY, so it is encoded per function rather
// than left per-window.
func toStatement(q *Query) (*plan.Statement, error) {
	used := map[string]int{}
	outName := func(base string) string {
		used[base]++
		if used[base] == 1 {
			return base
		}
		return fmt.Sprintf("%s_%d", base, used[base])
	}
	stmt := &plan.Statement{Table: q.From, Items: make([]plan.Item, len(q.Items))}
	for i := range q.Items {
		item := &q.Items[i]
		if item.Func == nil {
			name := item.Alias
			if name == "" {
				name = item.Column
			}
			stmt.Items[i] = plan.Item{Name: outName(name), SrcColumn: item.Column}
			continue
		}
		fc := item.Func
		if fc.Window == nil {
			return nil, fmt.Errorf("sql: %s has no window", item.Text)
		}
		name := item.Alias
		if name == "" {
			name = fc.Name
		}
		name = outName(name)
		spec, err := fc.toFuncSpec(name)
		if err != nil {
			return nil, err
		}
		if fd := fc.Window.Frame; fd != nil {
			fs, err := fd.toFrameSpec()
			if err != nil {
				return nil, err
			}
			spec.Frame = &fs
		} else {
			fs := defaultFrame(fc.Window)
			spec.Frame = &fs
		}
		stmt.Items[i] = plan.Item{
			Name:        name,
			PartitionBy: fc.Window.PartitionBy,
			OrderBy:     toSortKeys(fc.Window.OrderBy),
			Func:        &spec,
		}
	}
	return stmt, nil
}

// DateOutputs reports which output columns of q hold dates, keyed by output
// name, given the date columns of its source table. A plain projection is a
// date when its source column is one and a function when it returns the
// values of one (core.FuncSpec.ValueColumn); ranks, counts, sums and the
// like never are, whatever their alias. The date flag is a property of how a
// value was derived, never of the name it is selected under.
func DateOutputs(q *Query, srcDates map[string]bool) (map[string]bool, error) {
	stmt, err := toStatement(q)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, item := range stmt.Items {
		src := item.SrcColumn
		if item.Func != nil {
			src = item.Func.ValueColumn()
		}
		if src != "" && srcDates[src] {
			out[item.Name] = true
		}
	}
	return out, nil
}

// defaultFrame is SQL's default frame for a window: RANGE UNBOUNDED
// PRECEDING .. CURRENT ROW with an ORDER BY, the whole partition without.
func defaultFrame(w *WindowDef) frame.Spec {
	if len(w.OrderBy) > 0 {
		return frame.Default()
	}
	return frame.WholePartition()
}
