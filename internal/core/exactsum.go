package core

import (
	"math"
	"math/bits"
	"slices"
)

// Exact sums. Every SUM and AVG, plain and DISTINCT, is a sum of int64 lanes
// under wrapping addition, a group, so no fold order, prefix difference or
// differential pass reaches the answer. A finite value is a whole number of
// units 2^low, the lowest set bit among the kept values, cut into signed
// 32-bit digits, a lane each; with fewer than 2³¹ rows no lane sum leaves
// int64. NaN, +Inf, −Inf and −0.0 take a counting lane each when present.
// An INT64 SUM decodes the lanes modulo 2⁶⁴, so it wraps; every other sum is
// the exact sum rounded once (roundExact). The encoding does not depend on
// the output, so an INT64 SUM and AVG over one column share their lanes.
type sumLanes struct {
	lanes   [][]int64 // lanes[l][j]: lane l of kept value j
	low     int       // digit lane l counts units of 2^(low+32l)
	digits  int
	special [numSpecials]int // the lane counting each special value, or -1
}

// The special values an exact sum counts.
const (
	nanLane = iota
	posInfLane
	negInfLane
	negZeroLane
	numSpecials
)

// newSumLanes cuts the k kept values of col, value j at row orig(j), into
// lanes. An INT64 column finds its lowest and highest set bit in the OR of
// its magnitudes, uint64(max(v, −v)), which holds |v| for every int64.
func newSumLanes(col *Column, k int, orig func(j int) int) *sumLanes {
	sl := &sumLanes{digits: 1, special: [numSpecials]int{-1, -1, -1, -1}}
	low, high := math.MaxInt, math.MinInt
	if col.kind == Int64 {
		or := uint64(0)
		for j := range k {
			v := col.ints[orig(j)]
			or |= uint64(max(v, -v))
		}
		if or != 0 {
			low, high = bits.TrailingZeros64(or), 63-bits.LeadingZeros64(or)
		}
	} else {
		for j := range k {
			if m, e, _, sp := splitFloat(col.floats[orig(j)]); sp >= 0 {
				sl.special[sp] = 0 // present: placed below
			} else if m != 0 {
				low, high = min(low, e+bits.TrailingZeros64(m)), max(high, e+63-bits.LeadingZeros64(m))
			}
		}
	}
	if low <= high {
		sl.low, sl.digits = low, (high-low)/32+1
	}
	sl.lanes = make([][]int64, sl.digits, sl.digits+numSpecials)
	for sp, lane := range sl.special {
		if lane == 0 {
			sl.special[sp] = len(sl.lanes)
			sl.lanes = append(sl.lanes, nil)
		}
	}
	for l := range sl.lanes {
		sl.lanes[l] = make([]int64, k)
	}
	for j := range k {
		if col.kind == Int64 {
			v := col.ints[orig(j)]
			sl.cut(j, uint64(max(v, -v)), 0, v < 0)
		} else if m, e, neg, sp := splitFloat(col.floats[orig(j)]); sp >= 0 {
			sl.lanes[sl.special[sp]][j] = 1
		} else {
			sl.cut(j, m, e, neg)
		}
	}
	return sl
}

// cut writes ±m·2^e, kept value j, into the digit lanes.
func (sl *sumLanes) cut(j int, m uint64, e int, neg bool) {
	for l, lane := range sl.lanes[:sl.digits] {
		s := 32*l + sl.low - e
		d := m >> uint(s) // a shift of 64 or more is 0
		if s < 0 {
			d = m << uint(-s)
		}
		if lane[j] = int64(d & (1<<32 - 1)); neg {
			lane[j] = -lane[j]
		}
	}
}

// splitFloat returns a finite x as its magnitude m·2^e and its sign, with
// sp = -1; or the special lane it counts in as sp.
func splitFloat(x float64) (m uint64, e int, neg bool, sp int) {
	b := math.Float64bits(x)
	neg = b>>63 != 0
	exp, frac := int(b>>52&0x7ff), b&(1<<52-1)
	switch {
	case exp == 0x7ff && frac != 0:
		return 0, 0, neg, nanLane
	case exp == 0x7ff && neg:
		return 0, 0, neg, negInfLane
	case exp == 0x7ff:
		return 0, 0, neg, posInfLane
	case exp == 0 && frac == 0 && neg:
		return 0, 0, neg, negZeroLane
	case exp == 0:
		return frac, -1074, neg, -1
	}
	return frac | 1<<52, exp - 1075, neg, -1
}

// set writes SUM (avg false) or AVG of cnt > 0 values, whose lane sums are
// s, to out's row: into an INT64 column, the sum modulo 2⁶⁴; else NaN
// (math.NaN()) when a NaN or both infinities are summed, the infinity when
// one is, −0.0 when only −0.0 is, and the exact sum, over cnt for AVG,
// rounded once.
func (sl *sumLanes) set(out *Column, row int, s []int64, cnt int64, avg bool) {
	if out.kind == Int64 {
		var v uint64
		for l, x := range s[:sl.digits] {
			v += uint64(x) << uint(sl.low+32*l) // a shift of 64 or more is 0
		}
		out.setInt(row, int64(v))
		return
	}
	var n [numSpecials]int64
	for sp, l := range sl.special {
		if l >= 0 {
			n[sp] = s[l]
		}
	}
	div := int64(1)
	if avg {
		div = cnt
	}
	switch {
	case n[nanLane] > 0 || n[posInfLane] > 0 && n[negInfLane] > 0:
		out.setFloat(row, math.NaN())
	case n[posInfLane] > 0:
		out.setFloat(row, math.Inf(1))
	case n[negInfLane] > 0:
		out.setFloat(row, math.Inf(-1))
	case n[negZeroLane] == cnt:
		out.setFloat(row, math.Copysign(0, -1))
	default:
		out.setFloat(row, roundExact(s[:sl.digits], sl.low, div))
	}
}

// roundExact returns (Σ s[l]·2^(32l))·2^low / div, div in [1, 2³¹), rounded
// once to the nearest float64, ties to even; an exact zero is +0.0.
func roundExact(s []int64, low int, div int64) float64 {
	// Carry the lane sums into 32-bit digits d of two's complement, a sign
	// digit on top and three zero digits below lane 0, so that d counts
	// units of 2^(low−96) and a quotient keeps at least 65 bits. Then take
	// the magnitude and divide it by div.
	const digit = 1<<32 - 1
	var buf [16]uint64 // ten lanes; a wider sum's digits spill to the heap
	d, c := buf[:3], int64(0)
	for l := 0; l < len(s) || c != 0 && c != -1; l++ {
		if l < len(s) {
			c += s[l]
		}
		d, c = append(d, uint64(c)&digit), c>>32
	}
	d = append(d, uint64(c)&digit)
	for i, carry := 0, uint64(1); c < 0 && i < len(d); i++ {
		x := d[i] ^ digit + carry
		d[i], carry = x&digit, x>>32
	}
	rem := uint64(0)
	for i := len(d) - 1; i >= 0 && div > 1; i-- {
		d[i], rem = (rem<<32|d[i])/uint64(div), (rem<<32|d[i])%uint64(div)
	}
	t := len(d) - 1
	for t >= 0 && d[t] == 0 {
		t--
	}
	if t < 0 {
		return 0
	}
	// A nonzero quotient is at least 2⁶⁵, so t ≥ 2. m is its top 64 bits,
	// led by a set bit and worth m·2^e; sticky is whether a bit below is set.
	lz := uint(bits.LeadingZeros64(d[t]) - 32)
	m := (d[t]<<32|d[t-1])<<lz | d[t-2]<<lz>>32
	sticky := rem != 0 || d[t-2]<<lz&digit != 0 || slices.ContainsFunc(d[:t-2], func(x uint64) bool { return x != 0 })
	e := low - 96 + 32*(t-1) - int(lz)
	// Keep 53 bits, fewer where the result is subnormal, rounding the
	// dropped ones to nearest even; Ldexp is then exact, or overflows to an
	// infinity as rounding must. The sign digit c is −1 for a negative sum.
	drop := uint(max(11, -1074-e))
	q, r := m>>drop, m<<(64-drop)
	if r > 1<<63 || r == 1<<63 && (sticky || q&1 == 1) {
		q++
	}
	return math.Copysign(math.Ldexp(float64(q), e+int(drop)), float64(c))
}
