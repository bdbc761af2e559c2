package csvio

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkFloat fails t unless appendFloat writes exactly strconv's 'g' text for
// v, after a prefix it must keep.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	var wb, gb [40]byte
	want := strconv.AppendFloat(append(wb[:0], 'x'), v, 'g', -1, 64)
	if got := appendFloat(append(gb[:0], 'x'), v); string(got) != string(want) {
		t.Fatalf("appendFloat(%v) [bits %#016x] = %q, want %q", v, math.Float64bits(v), string(got[1:]), string(want[1:]))
	}
}

// TestAppendFloatMatchesStrconv holds the short-decimal fast path to strconv:
// every m/10^d for |m| ≤ 2·10^5 and d = 0…10, the edges of the fixed-notation
// range, values whose scaled product is inexact, and the values strconv alone
// must handle.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	for d := 0; d <= 10; d++ {
		for m := int64(0); m <= 200_000; m++ {
			v := float64(m) / math.Pow10(d)
			checkFloat(t, v)
			checkFloat(t, -v)
		}
	}
	edges := []float64{
		1e-4, math.Nextafter(1e-4, 0), 1e6, math.Nextafter(1e6, 0), 999999.99,
		0.29, 0.57, // 0.29·100 and 0.57·100 are not integers in float64
		-12.5, 0.1 + 0.2, 1.0 / 3, 123456.789012345, 0.000123456789012345, 99999.9999999999,
		1 << 53, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, math.MaxFloat64, -math.MaxFloat64, 2.2250738585072014e-308,
	}
	for _, v := range edges {
		checkFloat(t, v)
		checkFloat(t, -v)
		checkFloat(t, math.Nextafter(v, math.Inf(1)))
		checkFloat(t, math.Nextafter(v, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		v := float64(rng.Int63n(1e15)) / math.Pow10(rng.Intn(19))
		checkFloat(t, v)
		checkFloat(t, math.Nextafter(v, math.Inf(1)))
	}
}

// FuzzAppendFloat holds appendFloat to strconv over raw bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1e-4, 1e6, 999999.99, 0.29, -12.5, 1.0 / 3, math.NaN(), 5e-324} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}

var floatSink []byte

// BenchmarkAppendFloat times one cell's text for three column shapes: prices
// in cents and integral values take the fast path, the ratios an AVG returns
// (17 significant digits) miss it and pay the check on top of strconv.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 4096
	shapes := []struct {
		name string
		val  func() float64
	}{
		{"cents", func() float64 { return float64(rng.Int63n(100_000_000)) / 100 }},
		{"integral", func() float64 { return float64(rng.Int63n(1_000_000)) }},
		{"ratios", func() float64 { return float64(rng.Int63n(100_000_000)) / float64(3+rng.Int63n(1000)*3) }},
	}
	for _, s := range shapes {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = s.val()
		}
		b.Run(s.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf = appendFloat(buf[:0], vals[i%n])
			}
			floatSink = buf
		})
	}
}
