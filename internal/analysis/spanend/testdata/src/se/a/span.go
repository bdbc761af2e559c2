// Package a exercises the obs span lifecycle contract against the real
// internal/obs package (matched by import-path suffix).
package a

import "holistic/internal/obs"

func work(...any) {}

// --- leaks ---

func leakOnEarlyReturn(cond bool) {
	sp := obs.NewSpan("query") // want "not ended on every return path"
	if cond {
		return
	}
	sp.End()
}

func endedOnAllPaths(cond bool) {
	sp := obs.NewSpan("query")
	if cond {
		sp.End()
		return
	}
	sp.End()
}

func deferredEnd() {
	sp := obs.NewSpan("query")
	defer sp.End()
	work(sp.Name())
}

func deferredLiteralEnd() {
	sp := obs.NewSpan("query")
	defer func() { sp.End() }()
	work(sp.Name())
}

func leakOnPanicPath(bad bool) {
	sp := obs.NewSpan("query") // want "not ended on a panic path"
	if bad {
		panic("invariant broken")
	}
	sp.End()
}

// The guarded-defer idiom: on the nil edge the span is the disabled span
// and needs no End, so both paths verify.
func guardedDefer(parent *obs.Span) {
	sp := parent.Child("eval")
	if sp != nil {
		defer sp.End()
	}
	work(sp)
}

// An entry into an accumulator is a span to end; the accumulator is not.
func leakedEntry(parent *obs.Span, cond bool) {
	acc := parent.Accumulator("eval")
	sp := acc.Enter() // want "not ended on every return path"
	if cond {
		return
	}
	sp.End()
}

func nilCheckEarlyOut(parent *obs.Span) {
	sp := parent.Child("eval")
	if sp == nil {
		return
	}
	work(sp.Name())
	sp.End()
}

// --- nesting ---

func childOpenWhenParentEnds() {
	parent := obs.NewSpan("run")
	child := parent.Phase("sort")
	work(child.Name())
	parent.End() // want "still open when its parent"
	child.End()
}

func nestedProperly() {
	parent := obs.NewSpan("run")
	child := parent.Phase("sort")
	work(child.Name())
	child.End()
	parent.End()
}

// A deferred parent End runs after the children's explicit Ends, so the
// defer is not a nesting violation.
func deferredParentEnd() {
	parent := obs.NewSpan("run")
	defer parent.End()
	child := parent.Phase("sort")
	work(child.Name())
	child.End()
}

// --- ownership hand-offs (silent discharges) ---

func escapeReturn() *obs.Span {
	sp := obs.NewSpan("query")
	return sp
}

type carrier struct{ trace *obs.Span }

func escapeFieldStore(c *carrier) {
	sp := obs.NewSpan("query")
	c.trace = sp
}

func escapeCallArg() {
	sp := obs.NewSpan("query")
	work(sp)
}

func escapeGoroutine() {
	sp := obs.NewSpan("worker")
	go func() {
		defer sp.End()
		work()
	}()
}

// Ownership moves with a plain copy; the End through the new name counts.
func ownershipMove() {
	sp := obs.NewSpan("query")
	alias := sp
	alias.End()
}

// --- function-literal splicing ---

func runOnce(fn func()) { fn() }

func endInsideCallLiteral() {
	sp := obs.NewSpan("query")
	runOnce(func() {
		sp.End()
	})
}

// --- directives ---

func annotatedLongLived() {
	//lint:spanend-ok the monitor span outlives the function by design; Shutdown ends it
	sp := obs.NewSpan("monitor")
	work(sp.Name())
}

func bareDirective() {
	//lint:spanend-ok // want "needs a justification"
	sp := obs.NewSpan("monitor")
	work(sp.Name())
}
