package analysis

import "strings"

// Analyzers returns every registered analyzer in a stable order. Both
// are per-file syntactic checks; the suppression audit runs after them
// in VetModule.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detrand, Maporder}
}

// DetrandExempt is the one internal package detrand skips: the HTTP
// server reads the wall clock by design, for access timing, uptime and
// timers. Every other internal package — the SCIP/MAB learning core, the
// policies and the cache they run on, the replay and experiment engines,
// and any package added later — must be a pure function of its inputs
// and seeds. Drivers (cmd/..., examples/...) read clocks for reporting
// and are not internal packages.
const DetrandExempt = "internal/server"

// Applies reports whether analyzer a runs over the package at pkgPath.
// Maporder guards every package; Detrand runs on every internal package
// except DetrandExempt.
func Applies(a *Analyzer, pkgPath string) bool {
	if a != Detrand {
		return true
	}
	p := "/" + pkgPath
	return strings.Contains(p+"/", "/internal/") && !strings.HasSuffix(p, "/"+DetrandExempt)
}
