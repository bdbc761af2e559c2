package core

// Per-partition result caching for delta runs. A window function's output
// for a row depends only on its partition's content in window order — never
// on other partitions — so once a partition id names its content through
// its stamp (keyPartitions), the finished result vector of an
// untouched partition is exactly as reusable as its trees: the next epoch
// scatters the cached values instead of probing at all. This is what makes
// sustained mutation cheap — a batch that touches two partitions re-probes
// two partitions, and the other ninety-eight cost one memcopy each. A
// result vector is a Column like the output it is gathered from and
// scattered back into, charged at Column.Bytes.
//
// Result vectors are a mutation-path structure: they are admitted only once
// the dataset has applied a batch (DeltaView.Epoch > 0, which compactions
// preserve). On a dataset nobody has mutated, the only traffic they could
// serve is an identical statement repeated verbatim, and they cost a key,
// an entry and a copy of every output per (partition, function) of every
// statement — 10,000 entries a statement on a 2,000-partition table, never
// read again. There a function writes straight into its output column; a
// repeated statement re-runs its probes against the cached trees.
//
// The one exception is per-row frame offset expressions (Bound.OffsetFn):
// they are keyed by the row's id in the merged table, which shifts when a
// delete elsewhere renumbers later rows, so a frame using them is evaluated
// fresh every epoch. Everything else — batching, pooling — is
// result-invariant (enforced by the equivalence suites) and stays out of the
// key.

// gatherRows returns src's values at rows, in that order (nil for nil src).
func gatherRows[T any](src []T, rows []int32) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, row := range rows {
		out[i] = src[row]
	}
	return out
}

// scatterRows writes vals to dst at rows (nothing for nil vals).
func scatterRows[T any](dst, vals []T, rows []int32) {
	if vals == nil {
		return
	}
	for i, row := range rows {
		dst[row] = vals[i]
	}
}

// gatherResult copies the partition's rows out of a freshly-written output
// column into a cached result: one function's finished output over one
// partition, in partition sort order (positional, not by row id: merged row
// ids shift across epochs, positions within an untouched partition do not).
// Only the output's kind has values, so only its slice is gathered.
func gatherResult(out *Column, rows []int32) *Column {
	return &Column{name: out.name, kind: out.kind,
		ints: gatherRows(out.ints, rows), floats: gatherRows(out.floats, rows),
		strs: gatherRows(out.strs, rows), bools: gatherRows(out.bools, rows),
		nulls: nullMask(gatherRows(out.nulls, rows))}
}

// scatterResult writes a cached result into the output column at the
// partition's current row ids. A result without a mask writes none: every
// row of a fresh output starts non-NULL.
func scatterResult(out, r *Column, rows []int32) {
	scatterRows(out.ints, r.ints, rows)
	scatterRows(out.floats, r.floats, rows)
	scatterRows(out.strs, r.strs, rows)
	scatterRows(out.bools, r.bools, rows)
	scatterRows(out.nulls, r.nulls, rows)
}

// evalFuncCached evaluates one (partition, function) pair through the
// result cache when the run is a delta run over a dataset that has
// been mutated and the frame has no per-row offset expressions; otherwise it
// evaluates directly.
func evalFuncCached(p *partition, f *FuncSpec, out *Column, opt Options) error {
	spec := p.w.effectiveFrame(f)
	if opt.Delta == nil || opt.Delta.Epoch == 0 || spec.Start.OffsetFn != nil || spec.End.OffsetFn != nil {
		return evalFunc(p, f, out, opt)
	}
	evaluated := false
	rs := resultOf(p, f, spec)
	res, err := cacheGet(opt, &rs, func() (*Column, int64, error) {
		evaluated = true
		if err := evalFunc(p, f, out, opt); err != nil {
			return nil, 0, err
		}
		r := gatherResult(out, p.rows)
		return r, r.Bytes(), nil
	})
	if err != nil || evaluated {
		return err // a miss has just written these rows itself
	}
	if res.Len() != p.len() || res.kind != out.kind {
		// A key collision with an incompatible vector (should not happen
		// under the key scheme): evaluate fresh rather than corrupt output.
		return evalFunc(p, f, out, opt)
	}
	opt.trace.AddInt("result_hits", 1)
	scatterResult(out, res, p.rows)
	return nil
}
