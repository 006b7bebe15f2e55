package exp

import (
	"fmt"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/registry"
)

func init() {
	register(Runner{Name: "ablation", Title: "Ablations: SCIP design choices (DESIGN.md §6)", Run: runAblations})
}

// runAblations measures the miss-ratio impact of each resolved design
// choice on all three profiles.
func runAblations(cfg Config) error {
	// Each variant's options apply after the cell's seed and interval.
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"default", nil},
		{"history=1/4", []core.Option{core.WithHistoryFraction(0.25)}},
		{"history=1x", []core.Option{core.WithHistoryFraction(1.0)}},
		{"interval=1/4", []core.Option{core.WithInterval(scaledInterval(cfg.Scale) / 4)}},
		{"unified-ω", []core.Option{core.WithUnifiedModel()}},
		{"no-evict-sig", []core.Option{core.WithEvictGain(0)}},
		{"no-hit-sig", []core.Option{core.WithHitGain(0)}},
		{"force-none", []core.Option{core.WithForceMode(core.ForceNone)}},
		{"force-both", []core.Option{core.WithForceMode(core.ForceBoth)}},
	}
	if cfg.Quick {
		variants = variants[:5]
	}
	// Every (variant, profile) cell — plus the LRU reference row — is an
	// independent replay; enumerate them all as jobs and format the
	// ordered results serially.
	var jobs []func() (float64, error)
	for _, v := range variants {
		for _, p := range gen.Profiles {
			capBytes := p.CacheBytes(gb(64), cfg.Scale)
			b := policyBuilder{v.name, func(e registry.Env) cache.Policy {
				opts := append([]core.Option{core.WithSeed(e.Seed), core.WithInterval(e.Interval)}, v.opts...)
				return core.NewCache(e.Capacity, opts...)
			}}
			jobs = append(jobs, missCell(cfg, p, capBytes, b))
		}
	}
	lru, err := named(nil, "LRU")
	if err != nil {
		return err
	}
	for _, p := range gen.Profiles {
		capBytes := p.CacheBytes(gb(64), cfg.Scale)
		jobs = append(jobs, missCell(cfg, p, capBytes, lru[0]))
	}
	cells, err := runJobs(cfg, jobs)
	if err != nil {
		return err
	}
	header(cfg.Out, "# Ablations — SCIP miss ratio by design variant (scale %.4g, 64 GB-eq)", cfg.Scale)
	fmt.Fprintf(cfg.Out, "%-14s", "variant")
	for _, p := range gen.Profiles {
		fmt.Fprintf(cfg.Out, " %10s", p)
	}
	fmt.Fprintln(cfg.Out)
	i := 0
	for _, v := range variants {
		fmt.Fprintf(cfg.Out, "%-14s", v.name)
		for range gen.Profiles {
			fmt.Fprintf(cfg.Out, " %10.4f", cells[i])
			i++
		}
		fmt.Fprintln(cfg.Out)
	}
	// LRU reference row.
	fmt.Fprintf(cfg.Out, "%-14s", "LRU(ref)")
	for range gen.Profiles {
		fmt.Fprintf(cfg.Out, " %10.4f", cells[i])
		i++
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
