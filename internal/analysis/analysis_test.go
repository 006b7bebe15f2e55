package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures runs each analyzer over its testdata package and checks
// the diagnostics against the // want comments. Each fixture package
// carries a flagged file (findings expected), a clean file (silence
// expected) and a suppressed file (justified //scip: comments silence,
// bare ones surface as needs-a-justification).
func TestFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{Detrand, "detrand"},
		{Maporder, "maporder"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			CheckFixture(t, []*Analyzer{c.analyzer}, filepath.Join("testdata", c.dir))
		})
	}
}

// TestModuleFixtures runs the suppression audit, which sees every
// analyzer's used-marking, over its fixture.
func TestModuleFixtures(t *testing.T) {
	cases := []struct {
		analyzers []*Analyzer
		dir       string
	}{
		// The full analyzer set makes every registered token count as
		// "ran".
		{Analyzers(), "supaudit"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			CheckFixture(t, c.analyzers, filepath.Join("testdata", c.dir))
		})
	}
}

// TestRepoIsClean loads the whole module the way cmd/scip-vet does and
// asserts zero diagnostics: the tree must stay vet-clean, every
// intentional exception must carry a justified suppression comment, and
// no suppression may be stale. The module-wide VetModule entry point
// matters here: the suppression audit needs the shared used-marking.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	l, err := NewLoader("..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the ./... expansion is broken", len(pkgs))
	}
	for _, d := range VetModule(Analyzers(), NewModule(pkgs)) {
		t.Errorf("%s", d)
	}
}

// TestLoadPrefixPattern pins the "dir/..." expansion scip-vet accepts
// (scip-vet ./internal/...): every package under the prefix and nothing
// outside it.
func TestLoadPrefixPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module subtree")
	}
	l, err := NewLoader("..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the ./internal/... expansion is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, "/internal/") {
			t.Errorf("pattern ./internal/... matched %s", pkg.Path)
		}
	}
	if _, err := l.Load("./nonexistent/..."); err == nil {
		t.Error("pattern matching no packages should be an error")
	}
}

// TestApplies pins the detrand path scoping: every internal package is
// covered (the analysis framework itself included) except the HTTP
// server, which reads the clock by design, and drivers are not covered.
// Maporder runs in every package.
func TestApplies(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{Detrand, "github.com/scip-cache/scip/internal/core", true},
		{Detrand, "github.com/scip-cache/scip/internal/mab", true},
		{Detrand, "github.com/scip-cache/scip/internal/exp", true},
		{Detrand, "github.com/scip-cache/scip/internal/cache", true},
		{Detrand, "github.com/scip-cache/scip/internal/policies", true},
		{Detrand, "github.com/scip-cache/scip/internal/admission", true},
		{Detrand, "github.com/scip-cache/scip/internal/shard", true},
		{Detrand, "github.com/scip-cache/scip/internal/registry", true},
		{Detrand, "github.com/scip-cache/scip/internal/runner", true},
		{Detrand, "github.com/scip-cache/scip/internal/tdc", true},
		{Detrand, "github.com/scip-cache/scip/internal/belady", true},
		{Detrand, "github.com/scip-cache/scip/internal/trace", true},
		{Detrand, "github.com/scip-cache/scip/internal/httpx", true},
		{Detrand, "github.com/scip-cache/scip/internal/stats", true},
		{Detrand, "github.com/scip-cache/scip/internal/analysis", true},
		{Detrand, "github.com/scip-cache/scip/internal/server", false},
		{Detrand, "github.com/scip-cache/scip/cmd/scip-vet", false},
		{Maporder, "github.com/scip-cache/scip/internal/analysis", true},
	}
	for _, c := range cases {
		if got := Applies(c.analyzer, c.path); got != c.want {
			t.Errorf("Applies(%s, %s) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}
