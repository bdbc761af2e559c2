package plan

import (
	"fmt"

	"holistic/internal/core"
	"holistic/internal/obs"
)

// Sharing counters, process-wide in obs.Default: each shared-plan execution
// adds its plan's Stats counts of the same names.
var (
	sharedSorts = obs.Default.NewCounter("windowd_plan_shared_sorts",
		"Window sorts avoided by the shared-plan optimizer (windows that reused another window's sort).").With()
	sharedTrees = obs.Default.NewCounter("windowd_plan_shared_trees",
		"Tree builds avoided by the shared-plan optimizer (consumers beyond a shared tree's first).").With()
	sharedPreprocess = obs.Default.NewCounter("windowd_plan_shared_preprocess",
		"Preprocessing passes avoided by the shared-plan optimizer (partition boundaries and per-partition arrays reused).").With()
)

// Execute runs the plan against the source table and returns the output
// table (one column per statement item, in select order) plus the plan's
// sharing stats.
//
// With Options.NoSharedPlan set, the plan's clustering is ignored and every
// deduplicated window runs its own core.Run — the pre-shared-plan behavior,
// kept as an opt-out for benchmarking and as an escape hatch. Results are
// byte-identical either way. Without a structure cache in opt, each run
// shares structures among its own functions through a run-local cache
// (core.RunShared).
func (p *Plan) Execute(t *core.Table, opt core.Options) (*core.Table, Stats, error) {
	results := map[string]*core.Result{} // window key -> result
	if opt.NoSharedPlan {
		for _, g := range p.groups {
			for _, w := range g.windows {
				spec := &core.WindowSpec{PartitionBy: w.partitionBy, OrderBy: w.orderBy, Funcs: w.funcs}
				res, err := core.Run(t, spec, opt)
				if err != nil {
					return nil, Stats{}, err
				}
				results[windowKey(w.partitionBy, w.orderBy)] = res
			}
		}
	} else {
		sharedSorts.Add(int64(p.Stats.SortsShared))
		sharedTrees.Add(int64(p.Stats.TreesShared))
		sharedPreprocess.Add(int64(p.Stats.PreprocessShared))
		for _, g := range p.groups {
			gopt := opt
			if sp := opt.Trace.Child("plan.group"); sp != nil {
				sp.Set("partition_by", colsText(g.partitionBy))
				sp.Set("order_by", orderText(g.orderBy))
				sp.SetInt("windows", int64(len(g.windows)))
				gopt.Trace = sp
			}
			specs := make([]*core.WindowSpec, len(g.windows))
			for i, w := range g.windows {
				specs[i] = &core.WindowSpec{PartitionBy: w.partitionBy, OrderBy: w.orderBy, Funcs: w.funcs}
			}
			res, err := core.RunShared(t, g.partitionBy, g.orderBy, specs, gopt)
			if gopt.Trace != opt.Trace {
				gopt.Trace.End()
			}
			if err != nil {
				return nil, Stats{}, err
			}
			for i, w := range g.windows {
				results[windowKey(w.partitionBy, w.orderBy)] = res[i]
			}
		}
	}

	// Assemble the output table in select order.
	cols := make([]*core.Column, len(p.stmt.Items))
	for i := range p.stmt.Items {
		item := &p.stmt.Items[i]
		if item.Func == nil {
			src := t.Column(item.SrcColumn)
			if src == nil {
				return nil, Stats{}, fmt.Errorf("plan: unknown column %q", item.SrcColumn)
			}
			if src.Name() != item.Name {
				src = src.Renamed(item.Name)
			}
			cols[i] = src
			continue
		}
		res := results[windowKey(item.PartitionBy, item.OrderBy)]
		cols[i] = res.Column(item.Name)
		if cols[i] == nil {
			return nil, Stats{}, fmt.Errorf("plan: window result missing column %q", item.Name)
		}
	}
	out, err := core.NewTable(cols...)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, p.Stats, nil
}
