// Package analysistest is a golden-file test harness for the analyzers in
// internal/analysis, modelled on golang.org/x/tools/go/analysis/analysistest
// but built on the repo's own loader so it needs no external dependencies.
//
// Tests lay out packages under <analyzer>/testdata/src/<importpath>/ and
// annotate lines that should produce findings with want comments:
//
//	racy = 1 // want "assignment to captured variable"
//
// Each `// want "re" ["re" ...]` comment expects exactly that many
// findings on its line, matched against the regular expressions in column
// order; lines without a want comment must produce none. Testdata packages
// may import real module packages (e.g. holistic/internal/parallel) —
// imports resolve against the enclosing module, then against the testdata
// src tree, then against the standard library.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"holistic/internal/analysis"
)

// Run loads each package from dir/src and checks the analyzer's findings
// against the packages' want comments. dir is typically "testdata".
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(modRoot, modPath)
	src := filepath.Join(cwd, dir, "src")
	if err := registerTestdata(loader, src); err != nil {
		t.Fatal(err)
	}
	for _, pkgPath := range pkgs {
		checkPackage(t, loader, a, pkgPath)
	}
}

// registerTestdata maps every package directory under src as an extra
// import root.
func registerTestdata(loader *analysis.Loader, src string) error {
	return filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		pkgDir := filepath.Dir(p)
		rel, err := filepath.Rel(src, pkgDir)
		if err != nil {
			return err
		}
		loader.Extra[filepath.ToSlash(rel)] = pkgDir
		return nil
	})
}

func checkPackage(t *testing.T, loader *analysis.Loader, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	pkg, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	diags, _ := analysis.RunPackage([]*analysis.Analyzer{a}, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)

	// Group findings by file:line, preserving column order.
	got := map[string][]analysis.Diagnostic{}
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		got[key] = append(got[key], d)
	}
	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}

	for key, res := range wants {
		found := got[key]
		delete(got, key)
		if len(found) != len(res) {
			t.Errorf("%s: want %d finding(s), got %d: %s", key, len(res), len(found), messages(found))
			continue
		}
		for i, re := range res {
			if !re.MatchString(found[i].Message) {
				t.Errorf("%s: finding %q does not match want %q", key, found[i].Message, re)
			}
		}
	}
	for key, found := range got {
		t.Errorf("%s: unexpected finding(s): %s", key, messages(found))
	}
}

var wantRE = regexp.MustCompile(`// want( "(?:[^"\\]|\\.)*")+\s*$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts `// want "re"...` expectations, keyed by file:line.
func parseWants(pkg *analysis.Package) (map[string][]*regexp.Regexp, error) {
	wants := map[string][]*regexp.Regexp{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindString(c.Text)
				if m == "" {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, arg := range wantArgRE.FindAllStringSubmatch(m, -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", key, arg[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants, nil
}

func messages(diags []analysis.Diagnostic) string {
	if len(diags) == 0 {
		return "(none)"
	}
	var parts []string
	for _, d := range diags {
		parts = append(parts, fmt.Sprintf("%q", d.Message))
	}
	return strings.Join(parts, ", ")
}
