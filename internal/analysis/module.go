package analysis

import "sort"

// Module is one loaded package set plus each package's //scip:
// suppression set. Build it once with NewModule and share it across
// analyzers: VetModule threads the same set through every analyzer so a
// suppression consumed by one analyzer counts as used for the
// stale-suppression audit.
type Module struct {
	// Packages are the loaded packages, sorted by import path.
	Packages []*Package

	sups map[*Package]suppressionSet
}

// NewModule wraps pkgs; suppression sets are collected on first use.
func NewModule(pkgs []*Package) *Module {
	return &Module{Packages: pkgs, sups: make(map[*Package]suppressionSet)}
}

// Sups returns (building on first use) the //scip: comment set of pkg.
// The same set instance is shared by every analyzer run over pkg, so
// used-marking accumulates across analyzers.
func (m *Module) Sups(pkg *Package) suppressionSet {
	if s, ok := m.sups[pkg]; ok {
		return s
	}
	s := collectSuppressions(pkg.Fset, pkg.Files)
	m.sups[pkg] = s
	return s
}

// SuppressionInfo is one //scip: comment for the -supps inventory.
type SuppressionInfo struct {
	File          string
	Line          int
	Token         string
	Justification string
	// Used: some analyzer consumed the comment. Only meaningful after
	// VetModule has run over the module.
	Used bool
}

// SuppressionInventory lists every //scip: comment in the module, sorted
// by file and line. Run VetModule first to populate Used.
func (m *Module) SuppressionInventory() []SuppressionInfo {
	var out []SuppressionInfo
	for _, pkg := range m.Packages {
		sup := m.Sups(pkg)
		for _, lines := range sup.byFileLine {
			for _, sups := range lines {
				for _, s := range sups {
					//scip:ordered-ok collect-then-sort: the slice is sorted below, erasing map order
					out = append(out, SuppressionInfo{
						File:          s.file,
						Line:          s.line,
						Token:         s.token,
						Justification: s.justification,
						Used:          s.used,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}
