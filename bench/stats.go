package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between order statistics; 0 for no values.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// spread is the relative distance between the smallest and largest value,
// as a share of the median: what -repeat holds against a metric's bound.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	return (slices.Max(vals) - slices.Min(vals)) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// countRows counts the elements of the top-level "rows" array of a query
// response without decoding it: the timed path checks every answer's row
// count, and a full decode of a 1M-row body would cost more client CPU than
// the request cost the server. It reports -1 when the body has no such array
// or is cut short.
func countRows(body []byte) int {
	depth, rows := 0, -1
	inRows := false
	key, expectKey := "", false
	for i := 0; i < len(body); i++ {
		switch c := body[i]; c {
		case '"':
			j := i + 1
			for j < len(body) && body[j] != '"' {
				if body[j] == '\\' {
					j++
				}
				j++
			}
			if depth == 1 && expectKey {
				key = string(body[i+1 : min(j, len(body))])
			}
			i = j
			expectKey = false
		case '{', '[':
			if depth == 1 && c == '[' && key == "rows" && rows < 0 {
				inRows, rows = true, 0
			} else if inRows && depth == 2 {
				rows++
			}
			depth++
			expectKey = c == '{'
		case '}', ']':
			depth--
			if inRows && depth == 1 {
				inRows = false
			}
			key = ""
		case ',':
			expectKey = depth == 1
		}
	}
	if depth != 0 {
		return -1
	}
	return rows
}
