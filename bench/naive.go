package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// fnKind is one of the five window functions the workloads use.
type fnKind int

const (
	fnCountDistinct  fnKind = iota // count(distinct Arg)
	fnPercentileDisc               // percentile_disc(Frac order by Arg)
	fnRank                         // rank(order by Arg)
	fnDenseRank                    // dense_rank(order by Arg)
	fnSumDistinct                  // sum(distinct Arg)
)

// fn is one window function call.
type fn struct {
	Kind fnKind
	Arg  string
	Frac float64
}

func (f fn) sql() string {
	switch f.Kind {
	case fnCountDistinct:
		return "count(distinct " + f.Arg + ")"
	case fnPercentileDisc:
		return "percentile_disc(" + strconv.FormatFloat(f.Frac, 'g', -1, 64) + " order by " + f.Arg + ")"
	case fnRank:
		return "rank(order by " + f.Arg + ")"
	case fnDenseRank:
		return "dense_rank(order by " + f.Arg + ")"
	default:
		return "sum(distinct " + f.Arg + ")"
	}
}

// statement is the one query shape the workloads use: the key column plus
// some functions over one window with a ROWS frame of Preceding rows before
// the current row. The SQL sent to windowd and the naive evaluation below
// both derive from it.
type statement struct {
	Partition string // empty: one partition
	Order     string
	Preceding int
	Funcs     []fn
}

// sql renders the statement against a dataset. Function i answers as f<i>.
func (s statement) sql(dataset string) string {
	var b strings.Builder
	b.WriteString("select id")
	for i, f := range s.Funcs {
		fmt.Fprintf(&b, ", %s over w as f%d", f.sql(), i)
	}
	fmt.Fprintf(&b, " from %s window w as (", dataset)
	if s.Partition != "" {
		fmt.Fprintf(&b, "partition by %s ", s.Partition)
	}
	fmt.Fprintf(&b, "order by %s rows between %d preceding and current row)", s.Order, s.Preceding)
	return b.String()
}

// naiveEval evaluates s over the live rows of d by scanning every frame, and
// returns the rendered function results per id. It shares nothing with the
// program: it is what the verify pass compares windowd's answers with.
func naiveEval(d *data, s statement) map[int64][]string {
	order := d.byName[s.Order]
	var part *column
	if s.Partition != "" {
		part = d.byName[s.Partition]
	}
	idx := make([]int, 0, d.live)
	for i := range d.dead {
		if !d.dead[i] {
			idx = append(idx, i)
		}
	}
	// Window order: partition, then the order key, ties by table position
	// (the program's sort is stable). Order columns have no NULLs.
	slices.SortFunc(idx, func(a, b int) int {
		if part != nil && part.vals[a] != part.vals[b] {
			return cmpInt(part.vals[a], part.vals[b])
		}
		if order.vals[a] != order.vals[b] {
			return cmpInt(order.vals[a], order.vals[b])
		}
		return a - b
	})
	id := d.byName["id"]
	out := make(map[int64][]string, len(idx))
	var scratch []int64
	for start := 0; start < len(idx); {
		end := start + 1
		for part != nil && end < len(idx) && part.vals[idx[end]] == part.vals[idx[start]] {
			end++
		}
		if part == nil {
			end = len(idx)
		}
		for i := start; i < end; i++ {
			frame := idx[max(start, i-s.Preceding) : i+1]
			res := make([]string, len(s.Funcs))
			for k, f := range s.Funcs {
				res[k], scratch = naiveFn(f, d.byName[f.Arg], frame, idx[i], scratch)
			}
			out[id.vals[idx[i]]] = res
		}
		start = end
	}
	return out
}

func cmpInt(a, b int64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// naiveFn evaluates one function over one frame (row indices into c) for the
// current row cur. NULL renders as the empty string.
func naiveFn(f fn, c *column, frame []int, cur int, scratch []int64) (string, []int64) {
	null := func(i int) bool { return c.nulls != nil && c.nulls[i] }
	// less orders values with NULLs largest and equal to each other, the
	// program's (PostgreSQL's) default.
	less := func(a, b int) bool {
		if null(a) || null(b) {
			return !null(a) && null(b)
		}
		return c.vals[a] < c.vals[b]
	}
	switch f.Kind {
	case fnRank:
		n := 1
		for _, r := range frame {
			if less(r, cur) {
				n++
			}
		}
		return strconv.Itoa(n), scratch
	case fnDenseRank:
		// Distinct values below the current row's: NULL is never below.
		vals := scratch[:0]
		for _, r := range frame {
			if less(r, cur) {
				vals = append(vals, c.vals[r])
			}
		}
		slices.Sort(vals)
		return strconv.Itoa(1 + len(slices.Compact(vals))), vals
	}
	vals := scratch[:0]
	for _, r := range frame {
		if !null(r) {
			vals = append(vals, c.vals[r])
		}
	}
	slices.Sort(vals)
	switch f.Kind {
	case fnPercentileDisc:
		if len(vals) == 0 {
			return "", vals
		}
		// The first value whose cumulative distribution reaches Frac.
		k := int(math.Ceil(f.Frac*float64(len(vals)))) - 1
		k = min(max(k, 0), len(vals)-1)
		return renderValue(c.spec.Kind, vals[k]), vals
	case fnCountDistinct:
		return strconv.Itoa(len(slices.Compact(vals))), vals
	default: // fnSumDistinct
		if len(vals) == 0 {
			return "", vals
		}
		var sum int64
		for _, v := range slices.Compact(vals) {
			sum += v
		}
		return renderValue(c.spec.Kind, sum), vals
	}
}
