// Package core mirrors the pooled-scratch idioms of the real
// internal/core, which borrows its scratch from the imported arena pools.
package core

import "holistic/internal/arena"

func use(...any) {}

// wrap stands in for helpers like keptOrder that receive a fresh get
// as a direct argument and hand the buffer through to their result.
func wrap(b []int32) []int32 { return b }

// --- leaks ---

func leakOnOnePath(cond bool) {
	buf := arena.Int32s.Get(8) // want "not returned to the pool on every path"
	use(buf)
	if cond {
		return
	}
	arena.Int32s.Put(buf)
}

func leakWrappedGet() {
	idx := wrap(arena.Int32s.Get(8)) // want "not returned to the pool on every path"
	use(idx)
}

func balanced(cond bool) {
	buf := arena.Int32s.Get(8)
	use(buf)
	if cond {
		arena.Int32s.Put(buf)
		return
	}
	arena.Int32s.Put(buf)
}

func deferredPut() {
	buf := arena.Int32s.Get(8)
	defer arena.Int32s.Put(buf)
	use(buf)
}

func deferredLiteralPut() {
	buf := arena.Int32s.Get(8)
	defer func() { arena.Int32s.Put(buf) }()
	use(buf)
}

// Panic paths are exempt from the leak check: the pools are GC-backed.
func panicPathExempt(bad bool) {
	buf := arena.Int32s.Get(8)
	if bad {
		panic("invariant broken")
	}
	arena.Int32s.Put(buf)
}

// A put inside a loop body covers the loop's own get.
func loopBalanced(n int) {
	for i := 0; i < n; i++ {
		buf := arena.Int32s.Get(8)
		use(buf, i)
		arena.Int32s.Put(buf)
	}
}

// --- double put / use after put ---

func doublePut() {
	buf := arena.Int32s.Get(8)
	arena.Int32s.Put(buf)
	arena.Int32s.Put(buf) // want "returned to the pool twice"
}

func putAfterDefer() {
	buf := arena.Int32s.Get(8)
	defer arena.Int32s.Put(buf)
	use(buf)
	arena.Int32s.Put(buf) // want "returned to the pool twice"
}

func useAfterPut() {
	buf := arena.Int32s.Get(8)
	arena.Int32s.Put(buf)
	use(buf) // want "used after being returned to the pool"
}

func useOnReleasedPath(cond bool) {
	buf := arena.Int32s.Get(8)
	if cond {
		arena.Int32s.Put(buf)
	} else {
		arena.Int32s.Put(buf)
	}
	use(buf) // want "used after being returned to the pool"
}

// --- escapes ---

func escapeReturn() []int32 {
	buf := arena.Int32s.Get(8)
	return buf // want "escapes via return"
}

// Documented hand-offs annotate the return with a reason.
func escapeReturnDocumented() []int32 {
	buf := arena.Int32s.Get(8)
	//lint:poollifecycle-ok the caller is documented to put the buffer back via arena.Int32s.Put
	return buf
}

type holder struct{ buf []int32 }

// Escapes hand ownership away, so the escape itself is the finding — the
// buffer is no longer tracked afterwards and the leak check stays quiet.
func escapeFieldStore(h *holder) {
	buf := arena.Int32s.Get(8)
	h.buf = buf // want "stored outside the function's scope"
}

func escapeCompositeLit() {
	buf := arena.Int32s.Get(8)
	use(holder{buf: buf}) // want "escapes into a composite literal"
}

func escapeGoroutine() {
	buf := arena.Int32s.Get(8)
	go func() { // want "captured by a goroutine"
		use(buf)
	}()
}

// Borrowing — passing the buffer as a plain call argument — is fine.
func borrowIsFine() {
	buf := arena.Int32s.Get(8)
	use(buf)
	arena.Int32s.Put(buf)
}

// --- append and overwrite ---

func appendGrowth() {
	buf := arena.Int32s.Get(8)
	buf = append(buf, 1) // want "append on pooled buffer"
	arena.Int32s.Put(buf)
}

// The append result still wraps the pooled memory (the call sees a fresh
// get as a direct argument), so the never-put result also leaks.
func appendFreshGet() {
	buf := append(arena.Int32s.Get(8), 1) // want "append on pooled buffer" "not returned to the pool on every path"
	use(buf)
}

// The overwrite clobbers the only reference, so the overwrite itself is
// the finding; afterwards the buffer is untracked.
func overwriteWhileLive() {
	buf := arena.Int32s.Get(8)
	use(buf)
	buf = make([]int32, 4) // want "overwritten while still checked out"
	use(buf)
}

// Re-slicing keeps the same backing buffer checked out — not an overwrite.
func resliceIsFine() {
	buf := arena.Int32s.Get(8)
	buf = buf[:4]
	use(buf)
	arena.Int32s.Put(buf)
}

// Ownership moves with a plain copy; the put through the new name counts.
func ownershipMove() {
	buf := arena.Int32s.Get(8)
	alias := buf
	use(alias)
	arena.Int32s.Put(alias)
}

// --- function-literal splicing ---

// run stands in for obs.Timed-style helpers that invoke their literal
// argument exactly once; the analyzer splices the body inline.
func run(fn func()) { fn() }

func putInsideCallLiteral() {
	buf := arena.Int32s.Get(8)
	run(func() {
		use(buf)
		arena.Int32s.Put(buf)
	})
}

func getInsideCallLiteral() {
	run(func() {
		buf := arena.Int32s.Get(8) // want "not returned to the pool on every path"
		use(buf)
	})
}

// --- directive hygiene ---

func bareDirective() []int32 {
	buf := arena.Int32s.Get(8)
	//lint:poollifecycle-ok // want "needs a justification"
	return buf
}
