// Package suite registers the lint analyzers. TestRepoClean runs this list
// over the module inside `go test ./...`, so adding an analyzer here puts it
// in the gate.
package suite

import (
	"holistic/internal/analysis"
	"holistic/internal/analysis/lintdirective"
	"holistic/internal/analysis/narrowconv"
	"holistic/internal/analysis/parallelbody"
	"holistic/internal/analysis/poollifecycle"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lintdirective.Analyzer,
		narrowconv.Analyzer,
		parallelbody.Analyzer,
		poollifecycle.Analyzer,
	}
}
