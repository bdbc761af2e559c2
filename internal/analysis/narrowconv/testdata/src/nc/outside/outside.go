// Package outside is not a kernel package: narrowing is unchecked here.
package outside

func Narrow(v int) int32 { return int32(v) }

func NarrowByte(v int) uint8 { return uint8(v) }
