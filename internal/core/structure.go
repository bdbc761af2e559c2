package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"holistic/internal/frame"
	"holistic/internal/mst"
)

// Structure is the identity of one cached structure: what is built and every
// input that shapes it, and nothing a probe supplies. Frame bounds,
// percentile fractions and LEAD/LAG offsets are probe-time parameters, so
// functions differing only in them share one entry. A field left out would
// alias structures that differ; a field put in needlessly would split
// structures that are the same.
//
// This is the one declaration of that identity. The evaluators key the
// cache through it (cacheGet), the statement-level sort entry and the
// per-partition result entries too, and internal/plan groups a statement's
// functions by it (StructureOf), so the plan DAG shares a structure exactly
// when the cache does.
type Structure struct {
	// Part is the id of the partition a per-partition structure is built
	// over (partition.id): the executed sort, the partition's PARTITION BY
	// values and its last-change stamp. Empty for a statement-level entry
	// and for the planner's identities.
	Part string
	// Tag names what is built (the tag constants below).
	Tag string
	// Partition is a statement-level entry's PARTITION BY.
	Partition []string
	// Order is the ORDER BY the structure is built in: the function's
	// effective ORDER BY, or a statement-level sort's order.
	Order []SortKey
	// Arg is the column whose values the structure indexes.
	Arg string
	// Filter is the FILTER column, Drop the column whose NULL rows are
	// dropped before building.
	Filter, Drop string
	// State is the aggregate state of an annotated tree: the fold of an
	// int64 SUM, a float64 SUM or an AVG.
	State string
	// Width is the width class (Structure.form): a leaf-only entry answers
	// only ranges of at most mst.LeafRows rows, and a sliding one is cheap
	// only for the statements that chose it, so a statement choosing
	// another form builds, and caches, its own structure beside it.
	Width string

	// probe and probeFrame make a result entry: the function whose finished
	// output it holds and the resolved frame it ran under. Unlike a
	// structure, a result depends on every probe-time parameter.
	probe      *FuncSpec
	probeFrame frame.Spec
}

// Structure tags: the per-partition structures, then the one entry a
// statement keys once, its sort.
const (
	tagDistinctCount = "distinct-count" // COUNT(DISTINCT): prevIdcs and the tree over them
	tagDistinctAgg   = "distinct-agg"   // SUM/AVG(DISTINCT): prevIdcs and the annotated tree
	tagRankDense     = "rank-dense"     // RANK, PERCENT_RANK, CUME_DIST: dense rank keys and their tree
	tagRankUnique    = "rank-unique"    // ROW_NUMBER, NTILE: kept-row numbers and their tree
	tagDense         = "dense"          // DENSE_RANK: ranks, occurrence links and the range tree
	tagSelect        = "select"         // percentiles, value functions, LEAD/LAG: the permutation tree
	tagRowno         = "rowno"          // LEAD/LAG: every row's insertion position among the kept rows
	tagSegTree       = "segtree"        // SUM/AVG/MIN/MAX: a segment tree per function, never cached
	tagResult        = "result"         // one function's finished output over one partition

	tagSort = "sort" // the (PARTITION BY, ORDER BY) sort order of the table the scope names
)

// structureOf declares the structure f builds over a partition of a window
// ordered by windowOrder. kind is f's output kind, which picks the state of
// SUM(DISTINCT). The width class is left to the caller, which knows the rows
// a probe spans. COUNT builds nothing: its zero Tag.
func structureOf(f *FuncSpec, windowOrder []SortKey, kind Kind) Structure {
	order := f.OrderBy
	if len(order) == 0 {
		order = windowOrder
	}
	switch f.Name {
	case CountDistinct:
		return Structure{Tag: tagDistinctCount, Arg: f.Arg, Filter: f.Filter, Drop: f.Arg}
	case SumDistinct, AvgDistinct:
		state := "avg"
		if f.Name == SumDistinct {
			state = "float64"
			if kind == Int64 {
				state = "int64"
			}
		}
		return Structure{Tag: tagDistinctAgg, Arg: f.Arg, Filter: f.Filter, Drop: f.Arg, State: state}
	case Rank, PercentRank, CumeDist:
		return Structure{Tag: tagRankDense, Order: order, Filter: f.Filter}
	case RowNumber, Ntile:
		return Structure{Tag: tagRankUnique, Order: order, Filter: f.Filter}
	case DenseRank:
		return Structure{Tag: tagDense, Order: order, Filter: f.Filter}
	case PercentileDisc, PercentileCont:
		// Percentiles ignore NULLs of the value they order by (§4.5).
		return Structure{Tag: tagSelect, Order: order, Filter: f.Filter, Drop: percentileValueColumn(f)}
	case NthValue, FirstValue, LastValue, Lead, Lag:
		s := Structure{Tag: tagSelect, Order: order, Filter: f.Filter}
		if f.IgnoreNulls {
			s.Drop = f.Arg
		}
		return s
	case Sum, Avg, Min, Max:
		return Structure{Tag: tagSegTree, Arg: f.Arg, Filter: f.Filter}
	}
	return Structure{}
}

// StructureOf is structureOf for the planner: the structure f builds under
// a window ordered by windowOrder with frame spec, where argKind is the kind
// of f's argument column (SUM(DISTINCT)'s output kind). Its width class is
// the one the operator gives when no partition caps the rows a probe spans.
// Where that class also turns on the probe chunk size (a bounded
// COUNT(DISTINCT) frame wider than mst.LeafRows slides only within one
// chunk), the width is the row bound itself. Equal identities are built
// once; unequal ones may still be built once, in partitions of at most
// mst.LeafRows rows or where two bounds both slide.
func StructureOf(f *FuncSpec, windowOrder []SortKey, spec frame.Spec, argKind Kind) Structure {
	s := structureOf(f, windowOrder, argKind)
	if !s.Shared() {
		return s
	}
	rows64, bounded := spec.MaxRows()
	rows := math.MaxInt
	if bounded && rows64 < math.MaxInt {
		rows = int(rows64)
	}
	form := s.form(rows, false)
	s.Width = form.String()
	if bounded && s.form(rows, true) != form {
		s.Width = "rows=" + strconv.Itoa(rows)
	}
	return s
}

// Shared reports whether functions declaring s share one build through the
// cache: false for no structure and for the plain aggregates' segment trees,
// which each function builds for itself.
func (s *Structure) Shared() bool { return s.Tag != "" && s.Tag != tagSegTree }

// form is the form s is built in when its probes span at most rows rows:
// leaf-only when no probe descends, so nothing above level 0 would ever be
// read (mst/leaf.go), and full otherwise. A permutation tree is always full,
// and so is a float or AVG annotated tree, whose fold order is part of its
// answer. A COUNT(DISTINCT) tree is built sliding when slide holds — every
// frame a constant-offset ROWS frame no wider than a probe chunk. Between
// neighbouring queries each edge then moves by at most one kept row and the
// threshold's rank by at most one key, so all but the first query of a chunk
// and the first after a FILTER gap are answered from their predecessor, and
// the level-0 scans of those anchors, each at most rows wide, add up to O(n)
// (DESIGN.md §10.1).
func (s *Structure) form(rows int, slide bool) mst.Form {
	switch {
	case s.Tag == tagSelect, s.Tag == tagDistinctAgg && s.State != "int64":
		return mst.Full
	case rows <= mst.LeafRows:
		return mst.Leaves
	case s.Tag == tagDistinctCount && slide:
		return mst.Sliding
	}
	return mst.Full
}

// sized fixes s's width class for a run whose probes over this partition
// span at most rows rows (Options.rowsBound) and returns the form to build.
func (s *Structure) sized(rows int, opt Options) mst.Form {
	form := s.form(rows, opt.frameBounded && rows <= opt.taskSize())
	s.Width = form.String()
	return form
}

// resultOf is the identity of f's finished output over a partition: the
// structure fields a result shares with its function's structures, plus
// every probe-time parameter and the resolved frame.
func resultOf(p *partition, f *FuncSpec, spec frame.Spec) Structure {
	return Structure{Part: p.id, Tag: tagResult, Order: p.effectiveOrderKeys(f), Arg: f.Arg, Filter: f.Filter, probe: f, probeFrame: spec}
}

// sortOf is the identity of the (PARTITION BY, ORDER BY) sort order.
func sortOf(w *WindowSpec) Structure {
	return Structure{Tag: tagSort, Partition: w.PartitionBy, Order: w.OrderBy}
}

// String renders the identity alone, with no scope: what the planner groups
// by and what a partition id's executed-sort prefix is.
func (s *Structure) String() string { return s.key(Options{}) }

// key renders s as the string opt's cache stores it under; it is the one
// place a key is spelled out, and it names content only:
//
//	scope | [executed sort | pk=<PARTITION BY values> | pd<stamp> |] tag | fields | t=<tree options>
//
// The scope comes first, then the partition id of a per-partition
// structure, the tag and every non-empty field, each under its own label. A
// per-partition key carries the tree options that shape a tree, and a
// result key its probe fields.
func (s *Structure) key(opt Options) string {
	b := make([]byte, 0, 128)
	if opt.CacheScope != "" {
		b = append(append(b, opt.CacheScope...), '|')
	}
	if s.Part != "" {
		b = append(append(b, s.Part...), '|')
	}
	b = append(b, s.Tag...)
	if len(s.Partition) > 0 {
		b = AppendColumns(append(b, "|p="...), s.Partition)
	}
	if len(s.Order) > 0 {
		b = AppendOrder(append(b, "|o="...), s.Order)
	}
	for _, f := range [...]struct{ label, v string }{{"|a=", s.Arg}, {"|f=", s.Filter}, {"|d=", s.Drop}} {
		if f.v != "" {
			b = strconv.AppendQuote(append(b, f.label...), f.v)
		}
	}
	for _, f := range [...]struct{ label, v string }{{"|s=", s.State}, {"|w=", s.Width}} {
		if f.v != "" {
			b = append(append(b, f.label...), f.v...)
		}
	}
	if s.Part != "" {
		b = strconv.AppendInt(append(b, "|t="...), int64(opt.Tree.Fanout), 10)
		b = strconv.AppendInt(append(b, ','), int64(opt.Tree.SampleEvery), 10)
		if opt.Tree.NoCascading {
			b = append(b, ",nc"...)
		}
	}
	if f, fr := s.probe, &s.probeFrame; f != nil {
		b = fmt.Appendf(b, "|fn=%s|q=%b|n=%d|in=%t|fr=%d:%d,%d:%d,%d:%d", f.Name, f.Fraction, f.N, f.IgnoreNulls,
			fr.Mode, fr.Start.Type, fr.Start.Offset, fr.End.Type, fr.End.Offset, fr.Exclude)
	}
	return string(b)
}

// AppendColumns appends the rendering of a column list to b: each column
// quoted and followed by a comma.
func AppendColumns(b []byte, cols []string) []byte {
	for _, c := range cols {
		b = strconv.AppendQuote(b, c)
		b = append(b, ',')
	}
	return b
}

// AppendOrder appends the rendering of an ORDER BY list to b: each column
// quoted, then its direction and NULL placement. It is the one sort-key
// rendering, of cache keys here and of window identities in internal/plan.
func AppendOrder(b []byte, keys []SortKey) []byte {
	for _, k := range keys {
		b = strconv.AppendQuote(b, k.Column)
		if k.Desc {
			b = append(b, '-')
		} else {
			b = append(b, '+')
		}
		if k.NullsSmallest {
			b = append(b, 'n')
		}
		b = append(b, ',')
	}
	return b
}

// Labels describes s for the plan DAG in §4 terms: its preprocessing arrays
// and its tree, either empty when there is none. A width class other than
// the full tree is named after the tree.
func (s *Structure) Labels() (pre, tree string) {
	switch s.Tag {
	case tagDistinctCount:
		pre, tree = "prevIdcs occurrence links (Alg. 1) over "+s.Arg, "merge sort tree over prevIdcs("+s.Arg+")"
	case tagDistinctAgg:
		pre, tree = "prevIdcs occurrence links (Alg. 1) over "+s.Arg, "annotated merge sort tree over prevIdcs("+s.Arg+") (§4.3)"
	case tagRankDense:
		pre, tree = "dense ranks (Fig. 8)", "merge sort tree over rank keys"
	case tagRankUnique:
		pre, tree = "position-disambiguated rank keys", "merge sort tree over rank keys"
	case tagDense:
		pre, tree = "dense ranks + occurrence links", "range tree (§4.4, O(n log² n))"
	case tagSelect:
		pre, tree = "permutation array (Fig. 6)", "merge sort tree over the permutation"
	case tagSegTree:
		return "", "segment tree over kept values (per function)"
	default:
		return "", ""
	}
	if s.Width != "" && s.Width != mst.Full.String() {
		tree += ", " + s.Width
	}
	return pre, tree
}

// InScope returns the match function of every key cached under scope or a
// scope nested in it (scope + "|…"): what a dataset reload or a compaction
// drops. It is the one invalidation rule: a key names content, never the
// epoch it was asked at, so a mutation makes no entry wrong — the entries of
// a partition's superseded content are no longer asked for and age out.
func InScope(scope string) func(key string) bool {
	prefix := scope + "|"
	return func(key string) bool { return strings.HasPrefix(key, prefix) }
}
