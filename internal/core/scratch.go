package core

import "holistic/internal/arena"

// Pooled scratch acquisition for the evaluation engines' preprocessing
// temporaries. Every put is a no-op for a nil slice, so call sites stay
// branch-free.
//
// Only true temporaries may come from these helpers: anything retained
// beyond the call — cached structures, Remap internals, output columns —
// must be allocated with make, because pooled buffers are recycled by other
// requests after put. The poollifecycle analyzer tracks the helpers by name
// and additionally forbids growing a pooled buffer with append.

func (o Options) getInt32s(n int) []int32 { return arena.Int32s.Get(n) }
func (o Options) putInt32s(buf []int32)   { arena.Int32s.Put(buf) }

func (o Options) getInt64s(n int) []int64 { return arena.Int64s.Get(n) }
func (o Options) putInt64s(buf []int64)   { arena.Int64s.Put(buf) }

func (o Options) getUint64s(n int) []uint64 { return arena.Uint64s.Get(n) }
func (o Options) putUint64s(buf []uint64)   { arena.Uint64s.Put(buf) }

func (o Options) getBools(n int) []bool { return arena.Bools.Get(n) }
func (o Options) putBools(buf []bool)   { arena.Bools.Put(buf) }
