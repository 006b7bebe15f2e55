package exp

import (
	"fmt"
	"slices"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/lrb"
	"github.com/scip-cache/scip/internal/policies"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/replacement"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/trace"
)

func init() {
	register(Runner{Name: "fig7", Title: "Figure 7: SCIP vs SCI miss ratios", Run: runFig7})
	register(Runner{Name: "fig8", Title: "Figure 8: SCIP vs insertion policies (64/128/256 GB)", Run: runFig8})
	register(Runner{Name: "fig9", Title: "Figure 9: insertion-policy resource usage on CDN-T", Run: runFig9})
	register(Runner{Name: "fig10", Title: "Figure 10: SCIP vs replacement algorithms", Run: runFig10})
	register(Runner{Name: "fig11", Title: "Figure 11: replacement-algorithm resource usage on CDN-T", Run: runFig11})
	register(Runner{Name: "fig12", Title: "Figure 12: enhancing LRU-K and LRB with SCIP / ASC-IP", Run: runFig12})
}

// scaledInterval shrinks SCIP's learning interval with the trace scale so
// the number of learning-rate updates per trace matches the full-size
// configuration.
func scaledInterval(scale float64) int {
	iv := int(float64(core.DefaultInterval) * scale * 50)
	if iv < 1000 {
		iv = 1000
	}
	return iv
}

// lookupPolicy resolves every policy name the figure tables use. It is a
// swappable hook: the scorer golden-equivalence test
// (golden_equiv_test.go) wraps it to resolve SCIP to a zro-only scorer
// pipeline and re-runs the goldened figures to prove the pipeline
// reproduces the monolith byte-identically.
var lookupPolicy = registry.Lookup

// buildSCIPEnhancer constructs the SCIP insertion policy embedded in
// LRU-K and LRB for Figure 12; swapped by the same equivalence test.
var buildSCIPEnhancer = func(capBytes, seed int64, interval int) cache.InsertionPolicy {
	return core.New(capBytes, core.WithSeed(seed), core.WithInterval(interval), core.ForEnhancement())
}

// policyBuilder is one table column: its label and constructor.
type policyBuilder struct {
	name  string
	build registry.Constructor
}

// named resolves registry policy names to table columns. tr is the
// trace Belady replays; nil when no column is Belady.
func named(tr *trace.Trace, names ...string) ([]policyBuilder, error) {
	out := make([]policyBuilder, len(names))
	for i, name := range names {
		build, err := lookupPolicy(name, tr)
		if err != nil {
			return nil, err
		}
		out[i] = policyBuilder{name, build}
	}
	return out, nil
}

// insertionBaselines are Figure 8's competitors (all over LRU victim
// selection).
var insertionBaselines = []string{"SCIP", "LIP", "DIP", "PIPP", "DTA", "SHiP", "DGIPPR", "DAAIP", "ASC-IP"}

// replacementBaselines are Figure 10's competitors.
var replacementBaselines = []string{"SCIP", "LRU", "LRU-K", "S4LRU", "SS-LRU", "GDSF", "LHD", "CACHEUS", "LRB", "GL-Cache"}

// cellEnv is the construction input of every table cell: the cell's
// capacity and seed, and SCIP's learning interval scaled to the trace.
func cellEnv(cfg Config, capBytes, seed int64) registry.Env {
	return registry.Env{Capacity: capBytes, Seed: seed, Interval: scaledInterval(cfg.Scale)}
}

// runMissRatio replays each seed's trace and averages the miss ratio.
func runMissRatio(cfg Config, p gen.Profile, capBytes int64, b policyBuilder) (float64, error) {
	var mrs []float64
	for _, seed := range cfg.Seeds {
		tr, err := getTrace(p, cfg.Scale, seed)
		if err != nil {
			return 0, err
		}
		res := sim.Run(tr, b.build(cellEnv(cfg, capBytes, seed)), sim.Options{WarmupFrac: 0.2})
		mrs = append(mrs, res.MissRatio())
	}
	return mean(mrs), nil
}

// beladyMR computes Belady's miss ratio over the post-warmup region.
func beladyMR(tr *trace.Trace, c cache.Policy) float64 {
	warm := int(0.2 * float64(len(tr.Requests)))
	hits, total := 0, 0
	for i, r := range tr.Requests {
		h := c.Access(r)
		if i >= warm {
			total++
			if h {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(hits)/float64(total)
}

// missCell returns a job computing one (profile, builder) miss-ratio cell.
func missCell(cfg Config, p gen.Profile, capBytes int64, b policyBuilder) func() (float64, error) {
	return func() (float64, error) { return runMissRatio(cfg, p, capBytes, b) }
}

// beladyCell returns a job computing Belady's miss ratio for a profile.
func beladyCell(cfg Config, p gen.Profile, capBytes int64) func() (float64, error) {
	return func() (float64, error) {
		tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
		if err != nil {
			return 0, err
		}
		build, err := lookupPolicy("Belady", tr)
		if err != nil {
			return 0, err
		}
		return beladyMR(tr, build(registry.Env{Capacity: capBytes})), nil
	}
}

// runFig7 compares SCIP and SCI on all profiles.
func runFig7(cfg Config) error {
	builders, err := named(nil, "LRU", "SCI", "SCIP")
	if err != nil {
		return err
	}
	var jobs []func() (float64, error)
	for _, p := range gen.Profiles {
		capBytes := p.CacheBytes(gb(64), cfg.Scale)
		for _, b := range builders {
			jobs = append(jobs, missCell(cfg, p, capBytes, b))
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Figure 7 — SCIP vs SCI (scale %.4g, %d seeds, 64 GB-equivalent)", cfg.Scale, len(cfg.Seeds))
	header(cfg.Out, "%-8s %10s %10s %10s %10s", "trace", "LRU", "SCI", "SCIP", "SCIP-SCI")
	for i, p := range gen.Profiles {
		lruMR, sciMR, scipMR := cells[3*i], cells[3*i+1], cells[3*i+2]
		fmt.Fprintf(cfg.Out, "%-8s %10.4f %10.4f %10.4f %+10.4f\n", p, lruMR, sciMR, scipMR, scipMR-sciMR)
	}
	return nil
}

// runFig8 compares SCIP with the eight insertion baselines and Belady at
// the three paper cache sizes. Every (size, profile, policy) cell is an
// independent job; the ordered results are formatted serially.
func runFig8(cfg Config) error {
	sizes := paperGB
	if cfg.Quick {
		sizes = sizes[:1]
	}
	builders, err := named(nil, insertionBaselines...)
	if err != nil {
		return err
	}
	var jobs []func() (float64, error)
	for _, sz := range sizes {
		for _, p := range gen.Profiles {
			capBytes := p.CacheBytes(gb(sz), cfg.Scale)
			jobs = append(jobs, beladyCell(cfg, p, capBytes))
			for _, b := range builders {
				jobs = append(jobs, missCell(cfg, p, capBytes, b))
			}
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	i := 0
	for _, sz := range sizes {
		header(cfg.Out, "# Figure 8 — insertion policies, %d GB-equivalent (scale %.4g)", sz, cfg.Scale)
		header(cfg.Out, "%-8s %10s ...", "trace", "missRatio")
		for _, p := range gen.Profiles {
			fmt.Fprintf(cfg.Out, "%-8s Belady=%.4f", p, cells[i])
			i++
			for _, b := range builders {
				fmt.Fprintf(cfg.Out, " %s=%.4f", b.name, cells[i])
				i++
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	return nil
}

// runResources measures peak memory, throughput and a CPU proxy for each
// policy on CDN-T (Figures 9 and 11 substitute in-process metering for
// the paper's testbed monitors; see DESIGN.md §3). The metered replays
// deliberately stay serial regardless of Config.Workers: wall-clock and
// peak-heap samples taken while sibling cells run would measure the pool,
// not the policy.
func runResources(cfg Config, names []string, figure string) error {
	p := gen.CDNT
	capBytes := p.CacheBytes(gb(64), cfg.Scale)
	tr, err := getTrace(p, cfg.Scale, cfg.Seeds[0])
	if err != nil {
		return err
	}
	rows, err := named(tr, slices.Concat(names, []string{"Belady"})...)
	if err != nil {
		return err
	}
	header(cfg.Out, "# %s — resource usage on CDN-T, 64 GB-equivalent (scale %.4g)", figure, cfg.Scale)
	header(cfg.Out, "%-10s %10s %12s %12s %14s", "policy", "missRatio", "cpuNsPerReq", "peakHeapMiB", "TPS(kreq/s)")
	for _, b := range rows {
		res := sim.Run(tr, b.build(cellEnv(cfg, capBytes, cfg.Seeds[0])), sim.Options{WarmupFrac: 0.2, Meter: true})
		fmt.Fprintf(cfg.Out, "%-10s %10.4f %12.1f %12.1f %14.1f\n",
			b.name, res.MissRatio(), res.NsPerRequest, res.PeakHeapMiB, res.TPS/1000)
	}
	return nil
}

func runFig9(cfg Config) error  { return runResources(cfg, insertionBaselines, "Figure 9") }
func runFig11(cfg Config) error { return runResources(cfg, replacementBaselines, "Figure 11") }

// runFig10 compares SCIP with the replacement algorithms.
func runFig10(cfg Config) error {
	builders, err := named(nil, replacementBaselines...)
	if err != nil {
		return err
	}
	var jobs []func() (float64, error)
	for _, p := range gen.Profiles {
		capBytes := p.CacheBytes(gb(64), cfg.Scale)
		jobs = append(jobs, beladyCell(cfg, p, capBytes))
		for _, b := range builders {
			jobs = append(jobs, missCell(cfg, p, capBytes, b))
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Figure 10 — replacement algorithms, 64 GB-equivalent (scale %.4g)", cfg.Scale)
	i := 0
	for _, p := range gen.Profiles {
		fmt.Fprintf(cfg.Out, "%-8s Belady=%.4f", p, cells[i])
		i++
		for _, b := range builders {
			fmt.Fprintf(cfg.Out, " %s=%.4f", b.name, cells[i])
			i++
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// runFig12 measures the enhancement of LRU-K and LRB by SCIP and ASC-IP.
func runFig12(cfg Config) error {
	header(cfg.Out, "# Figure 12 — enhancing replacement algorithms (scale %.4g, %d seeds)", cfg.Scale, len(cfg.Seeds))
	header(cfg.Out, "%-8s %10s %12s %12s %10s %12s %12s", "trace", "LRU-K", "LRU-K-SCIP", "LRU-K-ASCIP", "LRB", "LRB-SCIP", "LRB-ASCIP")
	plain, err := named(nil, "LRU-K", "LRB")
	if err != nil {
		return err
	}
	variants := []policyBuilder{
		plain[0],
		{"LRU-K-SCIP", func(e registry.Env) cache.Policy {
			return replacement.NewLRUKWithInsertion(e.Capacity, e.Seed, buildSCIPEnhancer(e.Capacity, e.Seed, e.Interval))
		}},
		{"LRU-K-ASCIP", func(e registry.Env) cache.Policy {
			return replacement.NewLRUKWithInsertion(e.Capacity, e.Seed, policies.NewASCIP(e.Capacity))
		}},
		plain[1],
		{"LRB-SCIP", func(e registry.Env) cache.Policy {
			return lrb.New(e.Capacity, lrb.WithSeed(e.Seed), lrb.WithInsertion(buildSCIPEnhancer(e.Capacity, e.Seed, e.Interval)))
		}},
		{"LRB-ASCIP", func(e registry.Env) cache.Policy {
			return lrb.New(e.Capacity, lrb.WithSeed(e.Seed), lrb.WithInsertion(policies.NewASCIP(e.Capacity)))
		}},
	}
	var jobs []func() (float64, error)
	for _, p := range gen.Profiles {
		capBytes := p.CacheBytes(gb(64), cfg.Scale)
		for _, b := range variants {
			jobs = append(jobs, missCell(cfg, p, capBytes, b))
		}
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	i := 0
	for _, p := range gen.Profiles {
		fmt.Fprintf(cfg.Out, "%-8s", p)
		for range variants {
			fmt.Fprintf(cfg.Out, " %10.4f", cells[i])
			i++
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
