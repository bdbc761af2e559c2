// Package lintdirective validates the //lint: annotation grammar itself,
// so a typo in an escape hatch cannot silently disable (or fail to
// disable) a check: unknown directive names and empty directives are
// findings. The per-analyzer requirement that suppression directives
// carry a justification string is enforced by the owning analyzers.
package lintdirective

import (
	"sort"
	"strings"

	"holistic/internal/analysis"
)

// Analyzer is the lintdirective analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lintdirective",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, d := range pass.Directives {
		if d.Name == "" {
			pass.Reportf(d.Pos, "malformed //lint: directive: missing name")
			continue
		}
		if _, known := analysis.KnownDirectives[d.Name]; !known {
			pass.Reportf(d.Pos, "unknown //lint: directive %q (known: %s)", d.Name, knownNames())
		}
	}
	return nil
}

func knownNames() string {
	names := make([]string, 0, len(analysis.KnownDirectives))
	for n := range analysis.KnownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
