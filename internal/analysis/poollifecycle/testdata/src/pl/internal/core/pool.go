// Package core mirrors the pooled-scratch idioms of the real
// internal/core: the package path suffix makes the analyzer treat the
// Options get*/put* methods below as pool accessors, and the imported
// arena package as the pool implementation.
package core

import "holistic/internal/arena"

// Options carries the pool accessors, matching the real core.Options.
type Options struct{}

func (Options) getInt32s(n int) []int32 { return arena.Int32s.Get(n) }
func (Options) putInt32s(b []int32)     { arena.Int32s.Put(b) }
func (Options) getBools(n int) []bool   { return make([]bool, n) }
func (Options) putBools(b []bool)       {}

func use(...any) {}

// wrap stands in for helpers like keptOrder that receive a fresh get
// as a direct argument and hand the buffer through to their result.
func wrap(b []int32) []int32 { return b }

// --- leaks ---

func leakOnOnePath(o Options, cond bool) {
	buf := o.getInt32s(8) // want "not returned to the pool on every path"
	use(buf)
	if cond {
		return
	}
	o.putInt32s(buf)
}

func leakWrappedGet(o Options) {
	idx := wrap(o.getInt32s(8)) // want "not returned to the pool on every path"
	use(idx)
}

func balanced(o Options, cond bool) {
	buf := o.getInt32s(8)
	use(buf)
	if cond {
		o.putInt32s(buf)
		return
	}
	o.putInt32s(buf)
}

func deferredPut(o Options) {
	buf := o.getInt32s(8)
	defer o.putInt32s(buf)
	use(buf)
}

func deferredLiteralPut(o Options) {
	buf := o.getInt32s(8)
	defer func() { o.putInt32s(buf) }()
	use(buf)
}

// Panic paths are exempt from the leak check: the pools are GC-backed.
func panicPathExempt(o Options, bad bool) {
	buf := o.getInt32s(8)
	if bad {
		panic("invariant broken")
	}
	o.putInt32s(buf)
}

// A put inside a loop body covers the loop's own get.
func loopBalanced(o Options, n int) {
	for i := 0; i < n; i++ {
		buf := o.getInt32s(8)
		use(buf, i)
		o.putInt32s(buf)
	}
}

// --- double put / use after put ---

func doublePut(o Options) {
	buf := o.getInt32s(8)
	o.putInt32s(buf)
	o.putInt32s(buf) // want "returned to the pool twice"
}

func putAfterDefer(o Options) {
	buf := o.getInt32s(8)
	defer o.putInt32s(buf)
	use(buf)
	o.putInt32s(buf) // want "returned to the pool twice"
}

func useAfterPut(o Options) {
	buf := o.getInt32s(8)
	o.putInt32s(buf)
	use(buf) // want "used after being returned to the pool"
}

func useOnReleasedPath(o Options, cond bool) {
	buf := o.getInt32s(8)
	if cond {
		o.putInt32s(buf)
	} else {
		o.putInt32s(buf)
	}
	use(buf) // want "used after being returned to the pool"
}

// --- escapes ---

func escapeReturn(o Options) []int32 {
	buf := o.getInt32s(8)
	return buf // want "escapes via return"
}

// Documented hand-offs annotate the return with a reason.
func escapeReturnDocumented(o Options) []int32 {
	buf := o.getInt32s(8)
	//lint:poollifecycle-ok the caller is documented to put the buffer back via putInt32s
	return buf
}

type holder struct{ buf []int32 }

// Escapes hand ownership away, so the escape itself is the finding — the
// buffer is no longer tracked afterwards and the leak check stays quiet.
func escapeFieldStore(o Options, h *holder) {
	buf := o.getInt32s(8)
	h.buf = buf // want "stored outside the function's scope"
}

func escapeCompositeLit(o Options) {
	buf := o.getInt32s(8)
	use(holder{buf: buf}) // want "escapes into a composite literal"
}

func escapeGoroutine(o Options) {
	buf := o.getInt32s(8)
	go func() { // want "captured by a goroutine"
		use(buf)
	}()
}

// Borrowing — passing the buffer as a plain call argument — is fine.
func borrowIsFine(o Options) {
	buf := o.getInt32s(8)
	use(buf)
	o.putInt32s(buf)
}

// --- append and overwrite ---

func appendGrowth(o Options) {
	buf := o.getInt32s(8)
	buf = append(buf, 1) // want "append on pooled buffer"
	o.putInt32s(buf)
}

// The append result still wraps the pooled memory (the call sees a fresh
// get as a direct argument), so the never-put result also leaks.
func appendFreshGet(o Options) {
	buf := append(o.getInt32s(8), 1) // want "append on pooled buffer" "not returned to the pool on every path"
	use(buf)
}

// The overwrite clobbers the only reference, so the overwrite itself is
// the finding; afterwards the buffer is untracked.
func overwriteWhileLive(o Options) {
	buf := o.getInt32s(8)
	use(buf)
	buf = make([]int32, 4) // want "overwritten while still checked out"
	use(buf)
}

// Re-slicing keeps the same backing buffer checked out — not an overwrite.
func resliceIsFine(o Options) {
	buf := o.getInt32s(8)
	buf = buf[:4]
	use(buf)
	o.putInt32s(buf)
}

// Ownership moves with a plain copy; the put through the new name counts.
func ownershipMove(o Options) {
	buf := o.getInt32s(8)
	alias := buf
	use(alias)
	o.putInt32s(alias)
}

// --- function-literal splicing ---

// run stands in for obs.Timed-style helpers that invoke their literal
// argument exactly once; the analyzer splices the body inline.
func run(fn func()) { fn() }

func putInsideCallLiteral(o Options) {
	buf := o.getInt32s(8)
	run(func() {
		use(buf)
		o.putInt32s(buf)
	})
}

func getInsideCallLiteral(o Options) {
	run(func() {
		buf := o.getInt32s(8) // want "not returned to the pool on every path"
		use(buf)
	})
}

// --- directive hygiene ---

func bareDirective(o Options) []int32 {
	buf := o.getInt32s(8)
	//lint:poollifecycle-ok // want "needs a justification"
	return buf
}
