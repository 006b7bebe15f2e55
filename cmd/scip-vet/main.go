// Command scip-vet runs the repository's own static analyzers
// (internal/analysis) over the module: detrand (no ambient randomness or
// wall-clock reads in internal packages; internal/server is exempt, it
// times accesses by design) and maporder (no map iteration feeding
// ordered accumulators or output). A final audit diagnoses every
// //scip:*-ok suppression that no longer silences anything (stale) or
// names a token no analyzer recognises (unknown). Lock discipline is
// held by the race tests (make test-race), and copies of sync and atomic
// state by go vet's copylocks check (make vet), not by scip-vet.
//
// Usage:
//
//	scip-vet [-run names] [-supps] [packages]
//
// Packages default to ./...; a dir/... suffix selects a subtree
// (e.g. ./internal/...). Diagnostics print as file:line: analyzer:
// message; the exit status is 1 when any diagnostic is reported and 2
// when loading or type-checking fails.
// -run limits the run to a comma-separated list of analyzer names.
// -supps prints the suppression inventory (file:line, token,
// live/STALE, justification) instead of diagnostics.
// Intentional exceptions are declared in the source with a
// //scip:<token> comment carrying a justification (see
// internal/analysis and DESIGN.md §7).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/scip-cache/scip/internal/analysis"
)

func main() {
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	supps := flag.Bool("supps", false, "print the //scip: suppression inventory instead of diagnostics")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: scip-vet [-run names] [-supps] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the repository's determinism analyzers and the suppression audit.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*runNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scip-vet:", err)
		os.Exit(2)
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scip-vet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scip-vet:", err)
		os.Exit(2)
	}
	mod := analysis.NewModule(pkgs)
	diags := analysis.VetModule(analyzers, mod)

	if *supps {
		printInventory(mod)
		return
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scip-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -run list against the registry.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

func analyzerNames(all []*analysis.Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// printInventory lists every //scip: comment with its status: live
// (consumed by an analyzer this run) or STALE.
func printInventory(mod *analysis.Module) {
	inv := mod.SuppressionInventory()
	stale := 0
	for _, s := range inv {
		status := "live"
		if !s.Used {
			status = "STALE"
			stale++
		}
		just := s.Justification
		if just == "" {
			just = "(no justification)"
		}
		fmt.Printf("%s:%d: //scip:%-14s %-10s %s\n", s.File, s.Line, s.Token, status, just)
	}
	fmt.Fprintf(os.Stderr, "scip-vet: %d //scip: comment(s), %d stale\n", len(inv), stale)
	if stale > 0 {
		os.Exit(1)
	}
}
