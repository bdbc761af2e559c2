package core

import (
	"unsafe"

	"holistic/internal/mst"
	"holistic/internal/obs"
	"holistic/internal/rangetree"
)

// TreeCache is the tree-reuse hook of the window operator: before building
// a sort order, merge sort tree or preprocessed key array, the operator
// offers the construction to the cache, which may return a structure built
// by an earlier query instead. This is what turns the paper's "one tree
// answers arbitrarily many framed queries" property into cross-request
// reuse in windowd.
//
// GetOrBuild returns the value stored under key, invoking build on a miss.
// build reports the value's approximate resident size in bytes so the
// cache can enforce a byte budget. Implementations must be safe for
// concurrent use and should deduplicate concurrent builds of the same key
// (single-flight); internal/treecache provides the canonical
// implementation.
//
// Every cached structure is immutable after construction: the operator
// only ever reads them, so one value may serve any number of concurrent
// queries.
type TreeCache interface {
	GetOrBuild(key string, build func() (value any, bytes int64, err error)) (any, error)
}

// ctxErr returns the options context's error, tolerating an absent context.
func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// treeOptions returns the run's tree options with the run's context and
// the given build-phase span threaded through: construction obeys the run's
// worker cap and cancellation, and mst attaches its per-level merge spans
// beneath the "build merge sort tree" phase.
func (o Options) treeOptions(sp *obs.Span) mst.Options {
	topt := o.Tree
	topt.Context, topt.Trace = o.Context, sp
	return topt
}

// cacheGet fetches the structure s names from the run's cache (RunShared
// always sets one), building on a miss. A value of an unexpected type under
// the key (a collision between incompatible structure kinds, which the key
// scheme is designed to prevent) falls back to an uncached build rather
// than failing the query.
func cacheGet[T any](opt Options, s *Structure, build func() (T, int64, error)) (T, error) {
	// Count the cache interaction on the current span: a hit unless the
	// build closure actually ran. The slow-query log surfaces these counts,
	// so a cold-cache outlier is distinguishable from a slow probe at a
	// glance.
	built := false
	got, err := opt.Cache.GetOrBuild(s.key(opt), func() (any, int64, error) {
		built = true
		v, bytes, err := build()
		if err != nil {
			return nil, 0, err
		}
		return v, bytes, nil
	})
	if built {
		opt.trace.AddInt("cache_builds", 1)
	} else {
		opt.trace.AddInt("cache_hits", 1)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	if v, ok := got.(T); ok {
		return v, nil
	}
	v, _, err := build()
	return v, err
}

// sliceBytes is the resident size of int32 or int64 slices.
func sliceBytes[T int32 | int64](slices ...[]T) int64 {
	var total int64
	for _, s := range slices {
		total += int64(len(s)) * int64(unsafe.Sizeof(T(0)))
	}
	return total
}

// Cached structure bundles. Each bundle holds everything a probe phase
// needs beyond per-query state, so a cache hit skips the whole
// preprocessing + build pipeline for its evaluation path.
type (
	// cachedSort is the phase-1 (PARTITION BY, ORDER BY) sort order.
	cachedSort struct{ idx []int32 }
	// cachedDistinct backs COUNT(DISTINCT): Algorithm 1's prevIdcs, the
	// forward occurrence links, and the tree over prevIdcs, whose level 0
	// is prev itself.
	cachedDistinct struct {
		prev, next []int32
		tree       *mst.Tree
	}
	// cachedAgg backs SUM/AVG(DISTINCT) for one aggregate state type.
	cachedAgg[S any] struct {
		prev, next []int32
		values     []S
		tree       *mst.AnnotatedTree[S]
	}
	// cachedRank backs the rank family: per-row rank keys plus the tree
	// over the kept rows' keys.
	cachedRank struct {
		keysAll []int64
		tree    *mst.Tree
	}
	// cachedDense backs DENSE_RANK: rank arrays, occurrence links and the
	// range tree.
	cachedDense struct {
		ranksAll, ranksKept []int64
		prevKept, nextKept  []int64
		rt                  *rangetree.DenseRankTree
	}
	// cachedSelect backs percentiles, value selection and LEAD/LAG: the
	// permutation tree.
	cachedSelect struct{ tree *mst.Tree }
	// cachedRowno backs LEAD/LAG beside the permutation tree: every row's
	// insertion position among the kept rows.
	cachedRowno struct{ keptRowno []int32 }
)
