// Package analysis is a self-contained static-analysis framework modelled
// on golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/types and go/importer packages (the x/tools module is not a
// dependency of this repository).
//
// It exists to machine-check the contracts that keep the parallel
// evaluation engines sound. The syntactic analyzers:
//
//   - parallelbody: closures handed to internal/parallel must only write
//     state that is disjoint per task (§5.2's morsel-driven tasks share
//     nothing but the output arrays they index).
//   - nopanic: library packages return errors; panics are reserved for
//     annotated invariant assertions.
//   - framebounds: frame boundary arithmetic stays inside internal/frame,
//     so EXCLUDE/ROWS/RANGE/GROUPS edge cases live in exactly one place.
//   - sortstability: tuple and run data is sorted with the sanctioned
//     stable or position-disambiguated comparators; MST construction
//     breaks without them.
//   - lintdirective: the //lint: annotation grammar itself is validated.
//
// The path-sensitive analyzers, built on the CFG builder (subpackage cfg)
// and the generic forward worklist solver (subpackage dataflow):
//
//   - poollifecycle: every pooled scratch buffer is put exactly once on
//     every path, never used after put, never silently escaping.
//   - spanend: every obs trace span is ended on every return/panic path
//     and phase spans nest.
//   - ctxflow: request-path parallel loops stay cancellable; handler
//     paths never manufacture detached contexts.
//   - narrowconv: int->int32/uint32 narrowing in the MST kernels (and
//     ->uint8 narrowing in internal/mst) is dominated by a bounds guard
//     or routed through audited helpers.
//
// The suite is wired into cmd/holisticlint, which runs either standalone
// (`holisticlint [-sarif out.sarif] ./...`) or as a `go vet -vettool=`
// backend.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Directives holds every //lint: directive found in the package's
	// files, in source order.
	Directives []Directive

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Position resolves pos against the pass's file set.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Suppression looks up a directive of the given name that covers pos: the
// directive must sit in the same file, on the same line as pos or on the
// line directly above it. It returns the directive and whether one was
// found. Callers must still honour RequireReason via the directive's
// Reason field — an empty reason suppresses the original finding but is
// reported as a finding of its own by the owning analyzer (see
// ReportBareDirectives).
func (p *Pass) Suppression(pos token.Pos, name string) (Directive, bool) {
	target := p.Position(pos)
	for _, d := range p.Directives {
		if d.Name != name {
			continue
		}
		dp := p.Position(d.Pos)
		if dp.Filename != target.Filename {
			continue
		}
		if dp.Line == target.Line || dp.Line == target.Line-1 {
			return d, true
		}
	}
	return Directive{}, false
}

// ReportBareDirectives reports every directive with the given name whose
// justification string is empty. Each analyzer calls this for the escape
// hatches it owns, so `//lint:parallel-safe` without a reason is itself a
// finding — the hatch demands a written proof sketch. A bare hatch still
// suppresses the original finding, so exactly one actionable diagnostic is
// produced either way.
func (p *Pass) ReportBareDirectives(name string) {
	for _, d := range p.Directives {
		if d.Name == name && d.Reason == "" {
			p.Reportf(d.Pos, "//lint:%s needs a justification string", name)
		}
	}
}

// RunPackage applies every analyzer to the package and returns the
// collected diagnostics sorted by position. Findings located in _test.go
// files are dropped: the suite enforces contracts on shipped code, and go
// vet hands drivers the test variant of each package too.
func RunPackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	directives := ParseDirectives(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Directives: directives,
			report: func(d Diagnostic) {
				if strings.HasSuffix(fset.Position(d.Pos).Filename, "_test.go") {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Pos:      token.NoPos,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
		}
	}
	sortDiagnostics(fset, diags)
	return diags
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort keeps the dependency surface minimal; diagnostic
	// counts are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(fset, diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	return a.Analyzer < b.Analyzer
}
