package core

// Per-partition result caching for delta runs. A window function's output
// for a row depends only on its partition's content in window order — never
// on other partitions — so once a partition id names its content and
// last-change stamp (keyPartitions), the finished result vector of an
// untouched partition is exactly as reusable as its trees: the next epoch
// scatters the cached values instead of probing at all. This is what makes
// sustained mutation cheap — a batch that touches two partitions re-probes
// two partitions, and the other ninety-eight cost one memcopy each.
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

// cachedResult is one function's finished output over one partition, stored
// in partition sort order (positional, not by row id: merged row ids shift
// across epochs, positions within an untouched partition do not).
type cachedResult struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool
}

// cachedResultHeaderBytes is the struct itself: the kind word and five
// 24-byte slice headers. At a median partition of 18 rows it is as large as
// the values, so it is charged.
const cachedResultHeaderBytes = 8 + 5*24

// bytes is the vector's resident size: the struct, then what its slices hold.
func (r *cachedResult) bytes() int64 {
	total := cachedResultHeaderBytes +
		int64(len(r.nulls)) + 8*int64(len(r.ints)+len(r.floats)) + int64(len(r.bools))
	for _, s := range r.strs {
		total += int64(len(s)) + 16
	}
	return total
}

// gatherRows returns src's values at rows, in that order.
func gatherRows[T any](src []T, rows []int32) []T {
	out := make([]T, len(rows))
	for i, row := range rows {
		out[i] = src[row]
	}
	return out
}

// scatterRows writes vals to dst at rows.
func scatterRows[T any](dst, vals []T, rows []int32) {
	for i, row := range rows {
		dst[row] = vals[i]
	}
}

// gatherResult copies the partition's rows out of a freshly-written builder.
func gatherResult(out *outBuilder, rows []int32) *cachedResult {
	r := &cachedResult{kind: out.kind, nulls: gatherRows(out.nulls, rows)}
	switch out.kind {
	case Int64:
		r.ints = gatherRows(out.ints, rows)
	case Float64:
		r.floats = gatherRows(out.floats, rows)
	case String:
		r.strs = gatherRows(out.strs, rows)
	case Bool:
		r.bools = gatherRows(out.bools, rows)
	}
	return r
}

// scatter writes the cached vector into the builder at the partition's
// current row ids. Writes target disjoint rows per the builder contract.
func (r *cachedResult) scatter(out *outBuilder, rows []int32) {
	scatterRows(out.nulls, r.nulls, rows)
	switch r.kind {
	case Int64:
		scatterRows(out.ints, r.ints, rows)
	case Float64:
		scatterRows(out.floats, r.floats, rows)
	case String:
		scatterRows(out.strs, r.strs, rows)
	case Bool:
		scatterRows(out.bools, r.bools, rows)
	}
}

// evalFuncCached evaluates one (partition, function) pair through the
// result cache when the run is a delta run over a dataset that has
// been mutated and the frame has no per-row offset expressions; otherwise it
// evaluates directly.
func evalFuncCached(p *partition, f *FuncSpec, out *outBuilder, opt Options) error {
	spec := p.w.effectiveFrame(f)
	if opt.Delta == nil || opt.Delta.Epoch == 0 || spec.Start.OffsetFn != nil || spec.End.OffsetFn != nil {
		return evalFunc(p, f, out, opt)
	}
	evaluated := false
	rs := resultOf(p, f, spec)
	res, err := cacheGet(opt, &rs, func() (*cachedResult, int64, error) {
		evaluated = true
		if err := evalFunc(p, f, out, opt); err != nil {
			return nil, 0, err
		}
		r := gatherResult(out, p.rows)
		return r, r.bytes(), nil
	})
	if err != nil || evaluated {
		return err // a miss has just written these rows itself
	}
	if len(res.nulls) != p.len() || res.kind != out.kind {
		// A key collision with an incompatible vector (should not happen
		// under the key scheme): evaluate fresh rather than corrupt output.
		return evalFunc(p, f, out, opt)
	}
	opt.trace.AddInt("result_hits", 1)
	res.scatter(out, p.rows)
	return nil
}
