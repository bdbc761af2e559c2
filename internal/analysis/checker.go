package analysis

import "fmt"

// CheckModule loads every package of the module enclosing dir from source,
// non-test files only, and applies the analyzers. It returns one
// "file:line:col: message" line per diagnostic and per unused hatch (see
// RunPackage), package by package. Run it with the whole suite: the hatches
// of an analyzer left out all read as unused.
func CheckModule(analyzers []*Analyzer, dir string) ([]string, error) {
	root, modPath, err := FindModule(dir)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(root, modPath)
	paths, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return findings, err
		}
		diags, unused := RunPackage(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		for _, d := range diags {
			findings = append(findings, fmt.Sprintf("%s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer))
		}
		for _, d := range unused {
			findings = append(findings, fmt.Sprintf("%s: //lint:%s suppresses no finding; delete it", pkg.Fset.Position(d.Pos), d.Name))
		}
	}
	return findings, nil
}
