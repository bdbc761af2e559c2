package core

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactSumRef is SUM (avg false) or AVG of vals in math/big: NaN when a NaN
// or both infinities are summed, the infinity when one is, −0.0 when only
// −0.0 is, else the exact sum — over the count for AVG — rounded once to
// the nearest float64.
func exactSumRef(vals []float64, avg bool) float64 {
	sum, special, negZeros := new(big.Rat), 0.0, 0
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			special += v
			continue
		}
		if v == 0 && math.Signbit(v) {
			negZeros++
		}
		sum.Add(sum, new(big.Rat).SetFloat64(v))
	}
	switch {
	case math.IsNaN(special):
		return math.NaN()
	case special != 0:
		return special
	case negZeros == len(vals):
		return math.Copysign(0, -1)
	}
	if avg {
		sum.Quo(sum, new(big.Rat).SetInt64(int64(len(vals))))
	}
	f, _ := sum.Float64()
	return f
}

// FuzzExactSum checks the lane encoding of exact sums end to end: data's
// 8-byte words are float64 bit patterns, the column's lanes are added up in
// a shuffled order, and the values mask marks are subtracted back out, also
// shuffled. What is left must decode, as SUM and as AVG, to the math/big
// reference's bits (exactSumRef). The same words read as INT64 values must
// give the wrapping sum and the exact AVG.
func FuzzExactSum(f *testing.F) {
	word := func(bits ...uint64) []byte {
		var b []byte
		for _, x := range bits {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	f.Add(word(1, 0x000fffffffffffff, 0x0010000000000000), uint64(0), int64(1))                     // subnormals
	f.Add(word(0, 0x8000000000000000, 0x8000000000000000), uint64(1), int64(2))                     // ±0
	f.Add(word(0x7ff8000000000001, 0xfff8000000000000, math.Float64bits(2.5)), uint64(3), int64(3)) // NaN
	f.Add(word(0x7ff0000000000000, 0xfff0000000000000, math.Float64bits(1)), uint64(2), int64(4))   // ±Inf
	f.Add(word(0x7fefffffffffffff, 0x7fefffffffffffff, 0xffefffffffffffff), uint64(4), int64(5))    // overflow
	f.Add(word(math.Float64bits(1e-300), math.Float64bits(1e300), math.Float64bits(-1e300)), uint64(0), int64(6))
	f.Add(word(math.Float64bits(0.1), math.Float64bits(0.2), math.Float64bits(0.3), math.Float64bits(-0.6)), uint64(8), int64(7))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, seed int64) {
		n := min(len(data)/8, 64)
		floats, ints := make([]float64, n), make([]int64, n)
		for i := range n {
			bits := binary.LittleEndian.Uint64(data[8*i:])
			floats[i], ints[i] = math.Float64frombits(bits), int64(bits)
		}
		rng := rand.New(rand.NewSource(seed))
		var kept []int
		for i := range n {
			if mask>>i&1 == 0 {
				kept = append(kept, i)
			}
		}
		// sums adds every value's lanes in a shuffled order, then takes the
		// masked ones back out in another.
		sums := func(sl *sumLanes) []int64 {
			s := make([]int64, len(sl.lanes))
			for _, i := range rng.Perm(n) {
				for l, lane := range sl.lanes {
					s[l] += lane[i]
				}
			}
			for _, i := range rng.Perm(n) {
				for l, lane := range sl.lanes {
					s[l] -= lane[i] * int64(mask>>i&1)
				}
			}
			return s
		}
		if len(kept) == 0 {
			return
		}
		identity := func(j int) int { return j }
		out := newColumn("x", Float64, 1)
		fcol := NewFloat64Column("f", floats, nil)
		sl := newSumLanes(fcol, n, identity, true)
		s := sums(sl)
		keptFloats := make([]float64, len(kept))
		for j, i := range kept {
			keptFloats[j] = floats[i]
		}
		for _, avg := range []bool{false, true} {
			sl.set(out, 0, s, int64(len(kept)), avg)
			if got, want := out.Float64(0), exactSumRef(keptFloats, avg); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("avg=%v of %v: got %v (%x), want %v (%x)", avg, keptFloats, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		icol := NewInt64Column("i", ints, nil)
		exact, wrapped := newSumLanes(icol, n, identity, true), newSumLanes(icol, n, identity, false)
		es, ws := sums(exact), sums(wrapped)
		ref, wsum := new(big.Rat), int64(0)
		for _, i := range kept {
			ref.Add(ref, new(big.Rat).SetInt64(ints[i]))
			wsum += ints[i]
		}
		want, _ := ref.Quo(ref, new(big.Rat).SetInt64(int64(len(kept)))).Float64()
		if exact.set(out, 0, es, int64(len(kept)), true); math.Float64bits(out.Float64(0)) != math.Float64bits(want) {
			t.Fatalf("INT64 AVG of %d values: got %v, want %v", len(kept), out.Float64(0), want)
		}
		iout := newColumn("x", Int64, 1)
		if wrapped.set(iout, 0, ws, int64(len(kept)), false); iout.Int64(0) != wsum {
			t.Fatalf("INT64 SUM of %d values: got %d, want %d", len(kept), iout.Int64(0), wsum)
		}
	})
}
