package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one //lint: annotation. The grammar is
//
//	//lint:<name> <justification...>
//
// with no space between "//lint:" and the name. The justification is
// required for the hatches (see KnownDirectives); the marker
// parallel-entry takes none. Directives attach to the line they are
// written on and to the line directly below, so both trailing and leading
// placement work:
//
//	x := racyThing() //lint:parallel-safe tasks write disjoint epochs
//
//	//lint:narrowconv-ok the guard above proved the key fits
//	k := int32(key)
type Directive struct {
	// Name is the directive name, e.g. "parallel-safe".
	Name string
	// Reason is the justification text after the name (may be empty).
	Reason string
	// Pos is the position of the comment.
	Pos token.Pos
}

// Directive names understood by the suite. The hatches suppress findings;
// narrowconv-entry is one too, blessing a whole audited helper.
// parallel-entry is the only bare marker.
const (
	DirectiveParallelSafe    = "parallel-safe"
	DirectiveParallelEntry   = "parallel-entry"
	DirectivePoolLifecycleOK = "poollifecycle-ok"
	DirectiveNarrowConvOK    = "narrowconv-ok"
	DirectiveNarrowConvEntry = "narrowconv-entry"
)

// KnownDirectives maps every understood directive name to whether it is a
// hatch: one that requires a justification string and must suppress
// something (see RunPackage).
var KnownDirectives = map[string]bool{
	DirectiveParallelSafe:    true,
	DirectiveParallelEntry:   false,
	DirectivePoolLifecycleOK: true,
	DirectiveNarrowConvOK:    true,
	DirectiveNarrowConvEntry: true,
}

const directivePrefix = "//lint:"

// ParseDirectives extracts every //lint: directive from the files'
// comments, in source order. Malformed directives (the bare prefix) are
// returned with an empty name so lintdirective can flag them.
func ParseDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, reason, _ := strings.Cut(rest, " ")
				// The justification ends at a nested comment marker, so
				// tooling comments (e.g. analysistest want expectations)
				// don't count as a reason.
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				out = append(out, Directive{
					Name:   strings.TrimSpace(name),
					Reason: strings.TrimSpace(reason),
					Pos:    c.Pos(),
				})
			}
		}
	}
	return out
}
