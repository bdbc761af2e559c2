// Package analysis is a self-contained static-analysis framework modelled
// on golang.org/x/tools/go/analysis, built only on the standard library's
// go/ast, go/types and go/importer packages (the x/tools module is not a
// dependency of this repository).
//
// It exists to machine-check the contracts behind the paper's disjoint-task
// parallelism (§5.2) and 32-bit payload domain (§5.1):
//
//   - parallelbody: closures handed to internal/parallel must only write
//     state that is disjoint per task (§5.2's morsel-driven tasks share
//     nothing but the output arrays they index).
//   - poollifecycle: every pooled scratch buffer is put exactly once on
//     every path, never used after put, never silently escaping.
//   - narrowconv: int->int32/uint32 narrowing in the MST kernels (and
//     ->uint8 narrowing in internal/mst) is dominated by a bounds guard
//     or routed through audited helpers.
//   - lintdirective: the //lint: annotation grammar itself is validated.
//
// poollifecycle and narrowconv are path-sensitive: they run on the CFG
// builder (subpackage cfg) under the generic forward worklist solver
// (subpackage dataflow).
//
// The one driver is CheckModule, which TestRepoClean (subpackage suite)
// runs over the whole module inside `go test ./...`. The loader reads
// non-test files only, so _test.go files are outside the gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
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
	// used marks the directives a Suppression lookup returned; every pass
	// over one package shares it.
	used map[token.Pos]bool
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
// found, and marks it used (see RunPackage). An empty reason still
// suppresses the original finding but is reported as a finding of its own
// by the owning analyzer (see ReportBareDirectives).
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
			p.used[d.Pos] = true
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

// RunPackage applies every analyzer to the package. It returns the
// diagnostics sorted by position, and the unused hatches: the directives
// that take a reason (see KnownDirectives) which no Suppression lookup
// returned. An unused hatch hides the next real finding on its line or the
// line below; with only some analyzers run, the others' hatches read as
// unused.
func RunPackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (diags []Diagnostic, unused []Directive) {
	directives := ParseDirectives(fset, files)
	used := map[token.Pos]bool{}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Directives: directives,
			report:     func(d Diagnostic) { diags = append(diags, d) },
			used:       used,
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Pos:      token.NoPos,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
				Analyzer: a.Name,
			})
		}
	}
	for _, d := range directives {
		if KnownDirectives[d.Name] && !used[d.Pos] {
			unused = append(unused, d)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diagLess(fset, diags[i], diags[j]) })
	return diags, unused
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
