// Package a exercises lintdirective: unknown and malformed //lint:
// directives are findings, well-formed ones are not.
package a

import "sync"

var mu sync.Mutex

func known(x *int) {
	mu.Lock()
	*x++ //lint:parallel-safe guarded by mu; well-formed, not reported here
	mu.Unlock()
}

func typo(x *int) {
	*x++ //lint:paralel-safe misspelled // want "unknown //lint: directive"
}

func unknownName(x *int) {
	*x++ //lint:nolint // want "unknown //lint: directive"
}

func missingName(x *int) {
	*x++ //lint: // want "malformed //lint: directive"
}

// invariant names no directive, so a leftover one is unknown.
func retired() {
	panic("x") //lint:invariant unreachable // want "unknown //lint: directive"
}
