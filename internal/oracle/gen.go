package oracle

import (
	"math"
	"math/rand"

	"holistic/internal/frame"
)

// Gen draws the randomized tests' columns, N rows each, from Rng: one
// builder per kind, each row NULL with probability 1/nullEvery (never when
// nullEvery is 0).
type Gen struct {
	Rng *rand.Rand
	N   int
}

func (g Gen) column(name string, kind Kind, nullEvery int, draw func(row int)) Column {
	c := Column{Name: name, Kind: kind, Nulls: make([]bool, g.N)}
	for i := range g.N {
		draw(i)
		c.Nulls[i] = nullEvery > 0 && g.Rng.Intn(nullEvery) == 0
	}
	return c
}

// Ints draws values in [0, n).
func (g Gen) Ints(name string, n int64, nullEvery int) Column {
	v := make([]int64, g.N)
	c := g.column(name, Int64, nullEvery, func(i int) { v[i] = g.Rng.Int63n(n) })
	c.Ints = v
	return c
}

// Floats draws halves in [0, 25); one value in thirty is instead NaN, +Inf,
// −Inf, −0.0 or 0.0.
func (g Gen) Floats(name string, nullEvery int) Column {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	v := make([]float64, g.N)
	c := g.column(name, Float64, nullEvery, func(i int) {
		v[i] = float64(g.Rng.Intn(50)) / 2
		if g.Rng.Intn(30) == 0 {
			v[i] = special[g.Rng.Intn(len(special))]
		}
	})
	c.Floats = v
	return c
}

// Strings draws one-letter strings from the first letters of the alphabet.
func (g Gen) Strings(name string, letters, nullEvery int) Column {
	v := make([]string, g.N)
	c := g.column(name, String, nullEvery, func(i int) { v[i] = string(rune('a' + g.Rng.Intn(letters))) })
	c.Strs = v
	return c
}

// Bools draws true three times in four.
func (g Gen) Bools(name string, nullEvery int) Column {
	v := make([]bool, g.N)
	c := g.column(name, Bool, nullEvery, func(i int) { v[i] = g.Rng.Intn(4) != 0 })
	c.Bools = v
	return c
}

// RandFrame draws a frame: ROWS as often as RANGE and GROUPS together,
// bounds of every type with offsets up to 5, and an EXCLUDE clause. One ROWS
// bound in six is a per-row offset expression — the non-monotonic frames of
// §6.5 — hashing the row index it is given.
func RandFrame(rng *rand.Rand) frame.Spec {
	modes := []frame.Mode{frame.Rows, frame.Rows, frame.Range, frame.Groups}
	s := frame.Spec{Mode: modes[rng.Intn(len(modes))]}
	bound := func(start bool) frame.Bound {
		r := rng.Intn(12)
		switch {
		case r < 2:
			if start {
				return frame.Bound{Type: frame.UnboundedPreceding}
			}
			return frame.Bound{Type: frame.UnboundedFollowing}
		case r < 5:
			return frame.Bound{Type: frame.Preceding, Offset: int64(rng.Intn(6))}
		case r < 7:
			return frame.Bound{Type: frame.CurrentRow}
		case r < 10 || s.Mode != frame.Rows:
			return frame.Bound{Type: frame.Following, Offset: int64(rng.Intn(6))}
		default:
			salt := rng.Int63n(1000)
			fn := func(row int) int64 { return (int64(row)*2654435761 + salt) % 7 }
			if rng.Intn(2) == 0 {
				return frame.Bound{Type: frame.Preceding, OffsetFn: fn}
			}
			return frame.Bound{Type: frame.Following, OffsetFn: fn}
		}
	}
	s.Start = bound(true)
	s.End = bound(false)
	s.Exclude = frame.Exclusion(rng.Intn(4))
	return s
}
