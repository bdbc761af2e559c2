package csvio

import (
	"math"
	"strconv"
)

// appendFloat appends strconv.AppendFloat(dst, v, 'g', -1, 64): the shortest
// decimal that parses back to v, in fixed notation when its exponent is in
// -4…5 and in e-notation otherwise. Values with at most 15 significant digits
// in the fixed-notation range — prices in cents, counts, most data as typed —
// take a fast path of one multiply and one exact divide; every other value,
// and NaN, ±Inf, ±0 and subnormals, goes to strconv.
//
// The fast path takes m, the integer nearest |v|·10^d, with d the largest
// exponent for which v's decade keeps m below 10^15, and keeps it only if
// float64(m)/10^d == |v|. Both operands are exact (m < 2^53, 10^d ≤ 10^18),
// so the quotient is the correctly rounded value of the decimal m/10^d: that
// decimal parses to v. No two decimals of at most 15 significant digits parse
// to the same float64 (DBL_DIG is 15), so it is the only decimal that short
// in v's rounding interval, and it is what strconv's shortest search returns.
// Written with its trailing zeros stripped, it is strconv's text byte for
// byte (DESIGN.md §7.1).
func appendFloat(dst []byte, v float64) []byte {
	a := math.Abs(v)
	if !(a >= 1e-4 && a < 1e6) { // also false for NaN
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	// The decade e (10^e ≤ a < 10^(e+1)) is floor(log10 2^b) for a's binary
	// exponent b, or one more.
	b := int(math.Float64bits(a)>>52) - 1023
	e := b * 78913 >> 18 // floor(b·log10 2) for |b| < 1650
	if a >= decades[e+1-minDecade] {
		e++
	}
	d := 14 - e
	m := int64(a*pow10[d] + 0.5)
	if m >= 1e15 || float64(m)/pow10[d] != a {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	// Strip trailing zeros, at most d of them.
	for d >= 8 && m%1e8 == 0 {
		m /= 1e8
		d -= 8
	}
	if d >= 4 && m%1e4 == 0 {
		m /= 1e4
		d -= 4
	}
	if d >= 2 && m%100 == 0 {
		m /= 100
		d -= 2
	}
	if d >= 1 && m%10 == 0 {
		m /= 10
		d--
	}

	// Digits from the right: d fraction digits (m's, then leading zeros),
	// the point, the integer part ("0" when it is empty), the sign.
	var buf [24]byte
	i := len(buf)
	if d > 0 {
		for ; d >= 2; d -= 2 {
			i -= 2
			q := m % 100 * 2
			buf[i], buf[i+1] = digitPairs[q], digitPairs[q+1]
			m /= 100
		}
		if d == 1 {
			i--
			buf[i] = byte('0' + m%10)
			m /= 10
		}
		i--
		buf[i] = '.'
	}
	point := i
	for m >= 10 {
		i -= 2
		q := m % 100 * 2
		buf[i], buf[i+1] = digitPairs[q], digitPairs[q+1]
		m /= 100
	}
	if m > 0 || i == point {
		i--
		buf[i] = byte('0' + m)
	}
	if v < 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
}

// minDecade is the smallest decade of the fast path, 10^-4.
const minDecade = -4

// decades[k] is the float64 nearest 10^(k+minDecade), for k = 0…10.
var decades = [...]float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// pow10[d] is 10^d, exact in float64 for every index.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
