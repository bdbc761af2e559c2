package oracle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestIndependence keeps the oracle independent of the evaluator it checks:
// its non-test files import only the standard library and
// holistic/internal/frame, and use frame only for its types and constants —
// no function such as NewComputer, Default or WholePartition, and no method
// such as Validate.
func TestIndependence(t *testing.T) {
	allowed, methods := map[string]bool{}, map[string]bool{}
	for _, f := range parseDir(t, "../frame") {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						allowed[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							allowed[n.Name] = d.Tok == token.CONST
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods[d.Name.Name] = true
				}
			}
		}
	}
	for name, f := range parseDir(t, ".") {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if path != "holistic/internal/frame" && (first == "holistic" || strings.Contains(first, ".")) {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "frame" {
					if !allowed[sel.Sel.Name] {
						t.Errorf("%s uses frame.%s, which is not a type or constant", name, sel.Sel.Name)
					}
				} else if methods[sel.Sel.Name] {
					t.Errorf("%s calls %s, a method of package frame", name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, dir string) map[string]*ast.File {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	files := map[string]*ast.File{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return files
}

// TestIdentical pins the comparison at its edges: two NULLs are identical
// whatever their kinds, a NULL is not a value, −0.0 is not 0.0, and NaN is
// identical only to a NaN of the same bits.
func TestIdentical(t *testing.T) {
	f := func(x float64) Value { return Value{Kind: Float64, F: x} }
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	if !Identical(f(inf), f(inf)) || !Identical(f(nan), f(nan)) || !Identical(Value{Null: true, Kind: Float64}, Value{Null: true}) {
		t.Error("Identical rejects the same value")
	}
	if Identical(f(negZero), f(0)) || Identical(f(nan), f(-nan)) || Identical(Value{Null: true}, f(0)) || Identical(f(5), f(inf)) {
		t.Error("Identical accepts a different value")
	}
}
