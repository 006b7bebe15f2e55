package analysis

import (
	"testing"
	"time"
)

// loadModulePkgs loads the repository's own packages the way cmd/scip-vet
// does. The load (parse + type-check, stdlib from source) dominates a
// cold vet run and is amortised across iterations here, so the
// benchmark isolates the analysis cost: every analyzer pass and the
// suppression audit.
func loadModulePkgs(tb testing.TB) []*Package {
	tb.Helper()
	l, err := NewLoader("..")
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		tb.Fatal(err)
	}
	return pkgs
}

// BenchmarkVetModule measures one full vet pass over the repository
// (all analyzers + suppression audit).
func BenchmarkVetModule(b *testing.B) {
	pkgs := loadModulePkgs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := NewModule(pkgs)
		if diags := VetModule(Analyzers(), mod); len(diags) != 0 {
			b.Fatalf("module not vet-clean: %d diagnostics", len(diags))
		}
	}
}

// TestVetModuleBudget keeps the analysis phase inside an interactive
// budget: `make lint` runs scip-vet on every build, so a regression that
// makes an analyzer or the suppression audit superlinear in the module
// (e.g. rescanning every package's comments per finding) must fail
// loudly, not slide into a minute-long lint. The bound is deliberately
// generous — an order of magnitude over the observed cost — so slow CI
// hardware does not flake it.
func TestVetModuleBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	pkgs := loadModulePkgs(t)
	start := time.Now()
	VetModule(Analyzers(), NewModule(pkgs))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("VetModule over the repository took %v; budget is 30s", elapsed)
	}
}
