package exp

import (
	"fmt"

	"github.com/scip-cache/scip/internal/gen"
)

func init() {
	register(Runner{Name: "scorers", Title: "Scorer pipeline: monolith equivalence and mixed-signal admission", Run: runScorers})
}

// scorerSpecs are the pipeline mixes the experiment compares against the
// monolithic SCIP cache. The MIX(zro) column must equal the SCIP column
// on every profile — a zro-only placement pipeline reproduces the
// monolith's decision stream bit-for-bit (TestScorerGoldenEquivalence
// pins the same invariant byte-for-byte against the figure goldens).
var scorerSpecs = []struct {
	name string
	spec string
}{
	{"MIX(zro)", "scorer:zro=1"},
	{"MIX(z+s+f)", "scorer:zro=0.6,size=0.2,freq=0.2"},
	{"MIX(all)", "scorer:zro=0.4,size=0.15,freq=0.15,ghost=0.15,reuse=0.15"},
	{"FILT(s+f)", "scorer:size=0.5,freq=0.5,mode=filter"},
}

// runScorers measures the composable admission pipeline (DESIGN.md §11):
// the monolith-equivalent mix, two weighted placement mixes, and a
// filter-mode mix, across all trace profiles.
func runScorers(cfg Config) error {
	builderSet, err := named(nil, "SCIP")
	if err != nil {
		return err
	}
	for _, sp := range scorerSpecs {
		build, err := lookupPolicy(sp.spec+",name="+sp.name, nil)
		if err != nil {
			return err
		}
		builderSet = append(builderSet, policyBuilder{sp.name, build})
	}
	var jobs []func() (float64, error)
	for _, p := range gen.Profiles {
		capBytes := p.CacheBytes(gb(64), cfg.Scale)
		for _, b := range builderSet {
			jobs = append(jobs, missCell(cfg, p, capBytes, b))
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Scorer pipeline — composable admission mixes, 64 GB-eq (scale %.4g)", cfg.Scale)
	i := 0
	for _, p := range gen.Profiles {
		fmt.Fprintf(cfg.Out, "%-8s", p)
		for _, b := range builderSet {
			fmt.Fprintf(cfg.Out, " %s=%.4f", b.name, cells[i])
			i++
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
