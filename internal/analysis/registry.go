package analysis

import "strings"

// Analyzers returns every registered analyzer in a stable order. The
// first two are the per-file syntactic checks from scip-vet v1; the
// last is the interprocedural, flow-aware check built on the module
// function index (module.go).
func Analyzers() []*Analyzer {
	return []*Analyzer{Detrand, Maporder, Clocktaint}
}

// DetrandPaths lists the import-path suffixes of the packages whose
// behaviour must be a pure function of their inputs and seeds: the
// SCIP/MAB learning core, the experiment harness whose tables must
// reproduce byte-for-byte, and the replay engine. Trace generation and
// the learned baselines are seed-threaded too and are held to the same
// bar. Drivers (cmd/...) legitimately read clocks for reporting and are
// not listed.
var DetrandPaths = []string{
	"internal/core",
	"internal/mab",
	"internal/exp",
	"internal/sim",
	"internal/gen",
	"internal/lrb",
	"internal/ml",
	"internal/replacement",
	"internal/admission/scorer",
	"internal/zro",
	"internal/cluster",
}

// ClockSinkPaths lists the import-path suffixes of the packages holding
// deterministic decision state for the clocktaint analyzer: everything
// detrand already guards, plus the cache/policy layers that detrand
// exempts (they host the policies and must not absorb wall-clock values
// through any call chain even though drivers time them from outside).
var ClockSinkPaths = append(append([]string{}, DetrandPaths...),
	"internal/cache",
	"internal/policies",
	"internal/admission",
	"internal/shard",
)

// Applies reports whether analyzer a runs over the package at pkgPath.
// Maporder guards every package; Detrand is scoped to the
// deterministic-replay packages (DetrandPaths), because drivers and
// reporting code read wall clocks by design. The flow-aware Clocktaint
// runs everywhere: its sink paths decide what is checked.
func Applies(a *Analyzer, pkgPath string) bool {
	if a != Detrand {
		return true
	}
	for _, suffix := range DetrandPaths {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}
