package lattice

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestPointsCoverPairs checks that Points is a pairwise cover of dimensions:
// every field holds one of its dimension's values, and every pair of values
// from two dimensions meets in some point.
func TestPointsCoverPairs(t *testing.T) {
	typ := reflect.TypeOf(Point{})
	if typ.NumField() != len(dimensions) {
		t.Fatalf("Point has %d fields, dimensions lists %d", typ.NumField(), len(dimensions))
	}
	type pair struct{ i, vi, j, vj int }
	met := map[pair]bool{}
	for _, p := range Points {
		at := make([]int, len(dimensions))
		for i, values := range dimensions {
			if at[i] = slices.Index(values, reflect.ValueOf(p).Field(i).Interface()); at[i] < 0 {
				t.Fatalf("point %v: its %s is not one of %v", p, typ.Field(i).Name, values)
			}
			for j := range i {
				met[pair{j, at[j], i, at[i]}] = true
			}
		}
	}
	for i := range dimensions {
		for j := range i {
			for vi, x := range dimensions[i] {
				for vj, y := range dimensions[j] {
					if !met[pair{j, vj, i, vi}] {
						t.Errorf("no point has %s = %v and %s = %v", typ.Field(j).Name, y, typ.Field(i).Name, x)
					}
				}
			}
		}
	}
}

// TestTestOnlyImports keeps the oracle and the lattice test support: no
// non-test file of the module outside the two packages imports either.
func TestTestOnlyImports(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		_, nested := os.Stat(filepath.Join(path, "go.mod"))
		switch dir := filepath.ToSlash(filepath.Dir(path)); {
		case err != nil:
			return err
		case d.IsDir() && path != root && (nested == nil || d.Name() == "testdata" || d.Name()[0] == '.'):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.HasSuffix(dir, "internal/oracle") || strings.HasSuffix(dir, "internal/lattice"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "holistic/internal/oracle" || p == "holistic/internal/lattice" {
				t.Errorf("%s imports %s, a package for tests only", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
