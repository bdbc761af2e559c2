package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holistic/internal/analysis"
	"holistic/internal/analysis/suite"
)

// TestRepoClean is the lint gate: the full analyzer suite must report zero
// findings on the module's non-test files, and every hatch directive must
// suppress a finding.
func TestRepoClean(t *testing.T) {
	findings, err := analysis.CheckModule(suite.All(), ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestUnusedHatchIsAFinding runs the suite over a throwaway module holding
// one hatch that suppresses a parallelbody finding and one that suppresses
// nothing: only the second is reported.
func TestUnusedHatchIsAFinding(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module dirty\n")
	write("internal/parallel/parallel.go", `package parallel

func For(n, grain int, task func(lo, hi int)) { task(0, n) }
`)
	write("lib.go", `package lib

import "dirty/internal/parallel"

func Sum(n int) (total int) {
	parallel.For(n, 1, func(lo, hi int) {
		total += hi - lo //lint:parallel-safe For runs the task once here
	})
	//lint:poollifecycle-ok nothing here is pooled
	return total
}
`)
	findings, err := analysis.CheckModule(suite.All(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "lib.go:9:") || !strings.Contains(findings[0], "//lint:poollifecycle-ok suppresses no finding") {
		t.Fatalf("findings = %q, want one unused poollifecycle-ok hatch at lib.go:9", findings)
	}
}
