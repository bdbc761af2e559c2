package core

import (
	"math"
	"slices"
	"sort"

	"holistic/internal/frame"
)

// refEvaluator is an O(n²·w) reference implementation of the full window
// semantics, written as directly as possible from the SQL definitions so it
// shares no code with the production paths.
type refEvaluator struct {
	t *Table
	w *WindowSpec
	// parts memoises partitionOf: every row of a partition maps to the same
	// sorted slice, so a column costs one sort per partition, not per row.
	parts map[int][]int
}

// refValue is a dynamically-typed SQL value for the reference paths.
type refValue struct {
	null bool
	i    int64
	f    float64
	s    string
	b    bool
	kind Kind
}

func refVal(c *Column, row int) refValue {
	v := refValue{kind: c.Kind()}
	if c.IsNull(row) {
		v.null = true
		return v
	}
	switch c.Kind() {
	case Int64:
		v.i = c.Int64(row)
	case Float64:
		v.f = c.Float64(row)
	case String:
		v.s = c.StringAt(row)
	case Bool:
		v.b = c.Bool(row)
	}
	return v
}

func (e *refEvaluator) partitionOf(row int) []int {
	if part, ok := e.parts[row]; ok {
		return part
	}
	var rows []int
	for i := 0; i < e.t.Rows(); i++ {
		same := true
		for _, pc := range e.w.PartitionBy {
			if !e.t.Column(pc).equalAt(row, i) {
				same = false
				break
			}
		}
		if same {
			rows = append(rows, i)
		}
	}
	// Window order with original-index tiebreak, matching the operator.
	sort.SliceStable(rows, func(x, y int) bool {
		a, b := rows[x], rows[y]
		for _, k := range e.w.OrderBy {
			if c := k.compare(e.t.Column(k.Column), a, b); c != 0 {
				return c < 0
			}
		}
		return a < b
	})
	if e.parts == nil {
		e.parts = make(map[int][]int)
	}
	for _, r := range rows {
		e.parts[r] = rows
	}
	return rows
}

// samePeers reports whether two rows are peers under the window ORDER BY.
func (e *refEvaluator) samePeers(a, b int) bool {
	for _, k := range e.w.OrderBy {
		c := e.t.Column(k.Column)
		ca, cb := c.IsNull(a), c.IsNull(b)
		if ca != cb {
			return false
		}
		if !ca && c.compareValues(a, b) != 0 {
			return false
		}
	}
	return true
}

// frameMask returns, for the row at position pos of the sorted partition,
// which partition positions are in its frame after exclusion.
func (e *refEvaluator) frameMask(spec frame.Spec, part []int, pos int) []bool {
	n := len(part)
	mask := make([]bool, n)
	lo, hi := 0, n // [lo, hi)

	switch spec.Mode {
	case frame.Rows:
		lo, hi = refRowsBounds(spec, pos, n, part[pos])
	case frame.Groups:
		lo, hi = e.refGroupsBounds(spec, part, pos)
	case frame.Range:
		lo, hi = e.refRangeBounds(spec, part, pos)
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		mask[i] = true
	}
	// Exclusion.
	switch spec.Exclude {
	case frame.ExcludeCurrentRow:
		if pos >= 0 && pos < n {
			mask[pos] = false
		}
	case frame.ExcludeGroup, frame.ExcludeTies:
		for i := 0; i < n; i++ {
			if e.samePeers(part[i], part[pos]) {
				mask[i] = false
			}
		}
		if spec.Exclude == frame.ExcludeTies && pos >= lo && pos < hi {
			mask[pos] = true
		}
	}
	return mask
}

func refOffset(b frame.Bound, row int) int64 {
	if b.OffsetFn != nil {
		if o := b.OffsetFn(row); o > 0 {
			return o
		}
		return 0
	}
	return b.Offset
}

func refRowsBounds(spec frame.Spec, pos, n, origRow int) (int, int) {
	lo, hi := 0, n
	switch spec.Start.Type {
	case frame.UnboundedPreceding:
		lo = 0
	case frame.Preceding:
		lo = pos - int(refOffset(spec.Start, origRow))
	case frame.CurrentRow:
		lo = pos
	case frame.Following:
		lo = pos + int(refOffset(spec.Start, origRow))
	}
	switch spec.End.Type {
	case frame.UnboundedFollowing:
		hi = n
	case frame.Preceding:
		hi = pos - int(refOffset(spec.End, origRow)) + 1
	case frame.CurrentRow:
		hi = pos + 1
	case frame.Following:
		hi = pos + int(refOffset(spec.End, origRow)) + 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (e *refEvaluator) refGroupsBounds(spec frame.Spec, part []int, pos int) (int, int) {
	// Group numbering by peer equality.
	n := len(part)
	group := make([]int, n)
	for i := 1; i < n; i++ {
		group[i] = group[i-1]
		if !e.samePeers(part[i-1], part[i]) {
			group[i]++
		}
	}
	gLo, gHi := 0, group[n-1]
	switch spec.Start.Type {
	case frame.UnboundedPreceding:
		gLo = 0
	case frame.Preceding:
		gLo = group[pos] - int(refOffset(spec.Start, part[pos]))
	case frame.CurrentRow:
		gLo = group[pos]
	case frame.Following:
		gLo = group[pos] + int(refOffset(spec.Start, part[pos]))
	}
	switch spec.End.Type {
	case frame.UnboundedFollowing:
		gHi = group[n-1]
	case frame.Preceding:
		gHi = group[pos] - int(refOffset(spec.End, part[pos]))
	case frame.CurrentRow:
		gHi = group[pos]
	case frame.Following:
		gHi = group[pos] + int(refOffset(spec.End, part[pos]))
	}
	lo, hi := n, 0
	for i := 0; i < n; i++ {
		if group[i] >= gLo && group[i] <= gHi {
			if i < lo {
				lo = i
			}
			if i+1 > hi {
				hi = i + 1
			}
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

func (e *refEvaluator) refRangeBounds(spec frame.Spec, part []int, pos int) (int, int) {
	// Single INT64 order key, possibly descending, NULLs as largest (or
	// smallest per the key). A row is in range when its (oriented) key lies
	// within [myKey - startOff, myKey + endOff]; unbounded/current-row
	// bounds degrade to peers.
	key := e.w.OrderBy[0]
	col := e.t.Column(key.Column)
	n := len(part)
	oriented := func(i int) int64 {
		if col.IsNull(part[i]) {
			large := !key.NullsSmallest
			if key.Desc {
				large = !large
			}
			if large {
				return math.MaxInt64
			}
			return math.MinInt64
		}
		v := col.Int64(part[i])
		if key.Desc {
			if v == math.MinInt64 {
				return math.MaxInt64
			}
			return -v
		}
		return v
	}
	my := oriented(pos)
	inStart := func(i int) bool {
		switch spec.Start.Type {
		case frame.UnboundedPreceding:
			return true
		case frame.Preceding:
			return oriented(i) >= refSatSub(my, refOffset(spec.Start, part[pos]))
		case frame.CurrentRow:
			return oriented(i) >= my
		case frame.Following:
			return oriented(i) >= refSatAdd(my, refOffset(spec.Start, part[pos]))
		}
		return true
	}
	inEnd := func(i int) bool {
		switch spec.End.Type {
		case frame.UnboundedFollowing:
			return true
		case frame.Preceding:
			return oriented(i) <= refSatSub(my, refOffset(spec.End, part[pos]))
		case frame.CurrentRow:
			return oriented(i) <= my
		case frame.Following:
			return oriented(i) <= refSatAdd(my, refOffset(spec.End, part[pos]))
		}
		return true
	}
	lo, hi := n, 0
	for i := 0; i < n; i++ {
		if inStart(i) && inEnd(i) {
			if i < lo {
				lo = i
			}
			if i+1 > hi {
				hi = i + 1
			}
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

func refSatAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

func refSatSub(a, b int64) int64 { return refSatAdd(a, -b) }

// funcLess orders two rows by the function-level (or window) ORDER BY with
// original-index tiebreak.
func (e *refEvaluator) funcLess(f *FuncSpec) func(a, b int) bool {
	keys := f.OrderBy
	if len(keys) == 0 {
		keys = e.w.OrderBy
	}
	cols := e.columnsOf(keys)
	return func(a, b int) bool {
		for i, k := range keys {
			if c := k.compare(cols[i], a, b); c != 0 {
				return c < 0
			}
		}
		return a < b
	}
}

// columnsOf resolves the columns of sort keys once, outside the comparators.
func (e *refEvaluator) columnsOf(keys []SortKey) []*Column {
	cols := make([]*Column, len(keys))
	for i, k := range keys {
		cols[i] = e.t.Column(k.Column)
	}
	return cols
}

// funcEqual compares two rows for ORDER BY peer-ness.
func (e *refEvaluator) funcEqualRows(f *FuncSpec) func(a, b int) bool {
	keys := f.OrderBy
	if len(keys) == 0 {
		keys = e.w.OrderBy
	}
	cols := e.columnsOf(keys)
	return func(a, b int) bool {
		for _, c := range cols {
			if !c.equalAt(a, b) {
				return false
			}
		}
		return true
	}
}

// keptByFunc applies FILTER and the function's NULL-dropping rule.
func (e *refEvaluator) keptByFunc(f *FuncSpec, row int) bool {
	if f.Filter != "" {
		fc := e.t.Column(f.Filter)
		if fc.IsNull(row) || !fc.Bool(row) {
			return false
		}
	}
	var dropCol string
	switch f.Name {
	case Count, CountDistinct, SumDistinct, AvgDistinct, Sum, Avg, Min, Max:
		dropCol = f.Arg
	case PercentileDisc, PercentileCont:
		dropCol = f.OrderBy[0].Column
	case NthValue, FirstValue, LastValue, Lead, Lag:
		if f.IgnoreNulls {
			dropCol = f.Arg
		}
	}
	if dropCol != "" && e.t.Column(dropCol).IsNull(row) {
		return false
	}
	return true
}

// eval computes the expected value of function f for the given row.
func (e *refEvaluator) eval(f *FuncSpec, row int) refValue {
	part := e.partitionOf(row)
	pos := slices.Index(part, row)
	spec := e.w.effectiveFrame(f)
	mask := e.frameMask(spec, part, pos)

	// Frame rows surviving FILTER / NULL dropping, in window order.
	var fr []int
	for i, in := range mask {
		if in && e.keptByFunc(f, part[i]) {
			fr = append(fr, part[i])
		}
	}
	less := e.funcLess(f)
	eq := e.funcEqualRows(f)
	sortedFr := slices.Clone(fr)
	sort.SliceStable(sortedFr, func(a, b int) bool { return less(sortedFr[a], sortedFr[b]) })

	argCol := e.t.Column(f.Arg)
	switch f.Name {
	case CountStar, Count:
		return refValue{kind: Int64, i: int64(len(fr))}
	case CountDistinct:
		cnt := 0
		for i, r := range fr {
			first := true
			for _, q := range fr[:i] {
				if argCol.equalAt(r, q) {
					first = false
					break
				}
			}
			if first {
				cnt++
			}
		}
		return refValue{kind: Int64, i: int64(cnt)}
	case SumDistinct, AvgDistinct, Sum, Avg:
		var sum float64
		var isum int64
		cnt := 0
		for i, r := range fr {
			if f.Name == SumDistinct || f.Name == AvgDistinct {
				dup := false
				for _, q := range fr[:i] {
					if argCol.equalAt(r, q) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
			}
			sum += argCol.Numeric(r)
			if argCol.Kind() == Int64 {
				isum += argCol.Int64(r)
			}
			cnt++
		}
		if cnt == 0 {
			return refValue{null: true}
		}
		if f.Name == Avg || f.Name == AvgDistinct {
			return refValue{kind: Float64, f: sum / float64(cnt)}
		}
		if argCol.Kind() == Int64 {
			return refValue{kind: Int64, i: isum}
		}
		return refValue{kind: Float64, f: sum}
	case Min, Max:
		if len(fr) == 0 {
			return refValue{null: true}
		}
		best := fr[0]
		for _, r := range fr[1:] {
			c := argCol.Compare(r, best, false, true)
			if (f.Name == Min && c < 0) || (f.Name == Max && c > 0) {
				best = r
			}
		}
		return refVal(argCol, best)
	case Rank:
		cnt := 0
		for _, r := range fr {
			if less(r, row) && !eq(r, row) {
				cnt++
			}
		}
		return refValue{kind: Int64, i: int64(cnt) + 1}
	case RowNumber:
		cnt := 0
		for _, r := range fr {
			if less(r, row) {
				cnt++
			}
		}
		return refValue{kind: Int64, i: int64(cnt) + 1}
	case DenseRank:
		var distinct []int
		for _, r := range fr {
			if less(r, row) && !eq(r, row) {
				dup := false
				for _, q := range distinct {
					if eq(r, q) {
						dup = true
						break
					}
				}
				if !dup {
					distinct = append(distinct, r)
				}
			}
		}
		return refValue{kind: Int64, i: int64(len(distinct)) + 1}
	case PercentRank:
		if len(fr) <= 1 {
			return refValue{kind: Float64, f: 0}
		}
		cnt := 0
		for _, r := range fr {
			if less(r, row) && !eq(r, row) {
				cnt++
			}
		}
		return refValue{kind: Float64, f: float64(cnt) / float64(len(fr)-1)}
	case CumeDist:
		if len(fr) == 0 {
			return refValue{null: true}
		}
		cnt := 0
		for _, r := range fr {
			if less(r, row) || eq(r, row) {
				cnt++
			}
		}
		return refValue{kind: Float64, f: float64(cnt) / float64(len(fr))}
	case Ntile:
		idx := slices.Index(sortedFr, row)
		if idx < 0 {
			return refValue{null: true}
		}
		return refValue{kind: Int64, i: ntileBucket(int64(idx), int64(len(sortedFr)), f.N)}
	case PercentileDisc:
		if len(sortedFr) == 0 {
			return refValue{null: true}
		}
		k := percentileDiscIndex(f.Fraction, len(sortedFr))
		return refVal(e.t.Column(f.OrderBy[0].Column), sortedFr[k])
	case PercentileCont:
		if len(sortedFr) == 0 {
			return refValue{null: true}
		}
		vc := e.t.Column(f.OrderBy[0].Column)
		rn := f.Fraction * float64(len(sortedFr)-1)
		k0 := int(rn)
		frac := rn - float64(k0)
		v := vc.Numeric(sortedFr[k0])
		if frac > 0 && k0+1 < len(sortedFr) {
			v += frac * (vc.Numeric(sortedFr[k0+1]) - v)
		}
		return refValue{kind: Float64, f: v}
	case NthValue:
		k := int(f.N) - 1
		if k < 0 || k >= len(sortedFr) {
			return refValue{null: true}
		}
		return refVal(argCol, sortedFr[k])
	case FirstValue:
		if len(sortedFr) == 0 {
			return refValue{null: true}
		}
		return refVal(argCol, sortedFr[0])
	case LastValue:
		if len(sortedFr) == 0 {
			return refValue{null: true}
		}
		return refVal(argCol, sortedFr[len(sortedFr)-1])
	case Lead, Lag:
		if len(sortedFr) == 0 {
			return refValue{null: true}
		}
		before := 0
		for _, r := range sortedFr {
			if less(r, row) {
				before++
			}
		}
		off := f.N
		if off == 0 {
			off = 1
		}
		if f.Name == Lag {
			off = -off
		}
		target := before + int(off)
		if target < 0 || target >= len(sortedFr) {
			return refValue{null: true}
		}
		return refVal(argCol, sortedFr[target])
	}
	return refValue{null: true}
}
