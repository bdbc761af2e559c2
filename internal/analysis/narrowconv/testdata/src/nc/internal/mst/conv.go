// Package mst exercises the narrowing-conversion guard: the import-path
// suffix puts it in the analyzer's scope.
package mst

import "math"

func sink(...any) {}

// --- unguarded conversions ---

func unguarded(v int) int32 {
	return int32(v) // want "unguarded narrowing conversion to int32"
}

func unguardedUint(v uint64) uint32 {
	return uint32(v) // want "unguarded narrowing conversion to uint32"
}

func unguardedInt64(v int64) int32 {
	return int32(v) // want "unguarded narrowing conversion to int32"
}

// Conversions from at-most-32-bit sources never narrow.
func alreadyNarrow(v int32, w int16) {
	sink(int32(v), int32(w), uint32(uint16(9)))
}

func constantInRange() int32 {
	return int32(1 << 20)
}

// --- guard refinement ---

func guardedByEarlyOut(v int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	return int32(v)
}

func guardedOnTrueEdge(v int) int32 {
	if v <= math.MaxInt32 {
		return int32(v)
	}
	return 0
}

func guardedStrictLess(v int) int32 {
	if v < math.MaxInt32+1 {
		return int32(v)
	}
	return 0
}

func guardSwappedOperands(v int) int32 {
	if math.MaxInt32 >= v {
		return int32(v)
	}
	return 0
}

// The guard constant itself must fit: bounding by a >2³¹ constant proves
// nothing.
func guardTooLoose(v int) int32 {
	if v <= math.MaxInt32+1 {
		return int32(v) // want "unguarded narrowing conversion to int32"
	}
	return 0
}

// A cond-less switch lowers to a refinable if-chain, so its case edges
// guard like ifs (the count_batch.go threshold-clamp shape).
func guardedBySwitch(v int64) int32 {
	switch {
	case v <= 0:
		return 0
	case v > math.MaxInt32:
		return math.MaxInt32
	default:
		return int32(v)
	}
}

// --- must-join: every path has to establish the bound ---

func guardOnOnePathOnly(v int, cond bool) int32 {
	if cond {
		if v > math.MaxInt32 {
			return 0
		}
	}
	return int32(v) // want "unguarded narrowing conversion to int32"
}

func guardOnBothPaths(v int, cond bool) int32 {
	if cond {
		if v > math.MaxInt32 {
			return 0
		}
	} else {
		if v > 100 {
			return 0
		}
	}
	return int32(v)
}

// --- narrow sources and copy propagation ---

func narrowSource(small int16) int32 {
	v := int(small)
	return int32(v)
}

func copyPropagation(v int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	w := v
	return int32(w)
}

// --- kills ---

func reassignKills(v, u int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	v = u
	return int32(v) // want "unguarded narrowing conversion to int32"
}

func incrementKills(v int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	v++
	return int32(v) // want "unguarded narrowing conversion to int32"
}

func compoundAssignKills(v, u int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	v += u
	return int32(v) // want "unguarded narrowing conversion to int32"
}

// A loop back-edge joins the incremented value into the guard, killing it
// (the fixpoint must not let the pre-loop guard leak through).
func loopKills(v int) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	var acc int32
	for i := 0; i < 3; i++ {
		acc += int32(v) // want "unguarded narrowing conversion to int32"
		v++
	}
	return acc
}

// --- uint8: the merge-origin stripe entries (internal/mst only) ---

func unguardedByte(v int) uint8 {
	return uint8(v) // want "unguarded narrowing conversion to uint8"
}

// Every wider integer narrows into a byte, 32-bit ones included.
func unguardedByteFromInt32(v int32, w uint16) {
	sink(uint8(v)) // want "unguarded narrowing conversion to uint8"
	sink(uint8(w)) // want "unguarded narrowing conversion to uint8"
}

func byteAlreadyNarrow(v uint8, w int8) {
	sink(uint8(v), uint8(w), uint8(200))
}

func byteConstantTooLarge() uint8 {
	const big = 300
	v := big
	return uint8(v) // want "unguarded narrowing conversion to uint8"
}

func byteGuardedByEarlyOut(v int) uint8 {
	if v > math.MaxUint8 {
		return 0
	}
	return uint8(v)
}

func byteGuardedStrictLess(v int32) uint8 {
	if v < 256 {
		return uint8(v)
	}
	return 0
}

// A 32-bit guard says nothing about the byte bound.
func byteGuardTooLoose(v int) uint8 {
	if v > math.MaxInt32 {
		return 0
	}
	return uint8(v) // want "unguarded narrowing conversion to uint8"
}

// A byte guard also proves the 32-bit bound.
func byteGuardCoversInt32(v int) int32 {
	if v >= 256 {
		return 0
	}
	return int32(v)
}

func byteNarrowSource(small uint8) uint8 {
	v := int(small)
	return uint8(v)
}

// A 16-bit source fits 32 bits but not a byte.
func byteFromInt16Source(small int16) uint8 {
	v := int(small)
	return uint8(v) // want "unguarded narrowing conversion to uint8"
}

func byteIncrementKills(v int) uint8 {
	if v > 255 {
		return 0
	}
	v++
	return uint8(v) // want "unguarded narrowing conversion to uint8"
}

// u8 is the stripe funnel: exempt like i32.
//
//lint:narrowconv-entry testdata funnel: child indices are below the fanout cap
func u8(v int) uint8 { return uint8(v) }

func byteThroughFunnel(v int) uint8 {
	return u8(v)
}

func byteAnnotatedSite(v int) uint8 {
	//lint:narrowconv-ok the caller reduced v modulo 256
	return uint8(v)
}

// --- funnels and directives ---

// i32 is this package's audited funnel: the body is exempt because the
// declaration carries the entry directive.
//
//lint:narrowconv-entry testdata funnel: callers prove the bound
func i32(v int) int32 { return int32(v) }

func throughFunnel(v int) int32 {
	return i32(v)
}

func annotatedSite(v int) int32 {
	//lint:narrowconv-ok the caller masked v to 20 bits
	return int32(v)
}

func bareOKDirective(v int) int32 {
	//lint:narrowconv-ok // want "needs a justification"
	return int32(v)
}

//lint:narrowconv-entry // want "needs a justification"
func bareEntryDirective(v int) int32 { return int32(v) }

// --- type parameters: the operand by its widest term, the target by its
// narrowest ---

func fromTypeParam[K int32 | int64](v K) int32 {
	return int32(v) // want "unguarded narrowing conversion to int32"
}

func toTypeParam[K int32 | int64](n int) K {
	return K(n) // want "unguarded narrowing conversion to int32"
}

func typeParamGuarded[K int32 | int64](v K) int32 {
	if v > math.MaxInt32 {
		return 0
	}
	return int32(v)
}

// A type set of 32-bit terms only never narrows into int32.
func typeParamAlreadyNarrow[K int16 | int32](v K) int32 {
	return int32(v)
}
