package exp

import (
	"fmt"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/replacement"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/shard"
)

func init() {
	register(Runner{Name: "ext", Title: "Extensions: multi-chain SCIP (future work), admission policies, sharded concurrency", Run: runExtensions})
}

// runExtensions measures the three extensions beyond the paper's
// evaluation: the future-work multi-chain integration (S4LRU-SCIP), the
// related-work admission policies (§7), and the scalability of the
// sharded concurrent front.
func runExtensions(cfg Config) error {
	if err := runMultiChain(cfg); err != nil {
		return err
	}
	if err := runAdmission(cfg); err != nil {
		return err
	}
	return runSharded(cfg)
}

// runMultiChain compares S4LRU against S4LRU-SCIP (the paper's stated
// future work) on all profiles.
func runMultiChain(cfg Config) error {
	builders, err := named(nil, "S4LRU")
	if err != nil {
		return err
	}
	builders = append(builders, policyBuilder{"S4LRU-SCIP", func(e registry.Env) cache.Policy {
		return replacement.NewS4LRUWithInsertion(e.Capacity, core.New(e.Capacity,
			core.WithSeed(e.Seed), core.WithInterval(e.Interval), core.ForEnhancement()))
	}})
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
	header(cfg.Out, "# Extension A — multi-chain SCIP (paper future work), 64 GB-eq (scale %.4g)", cfg.Scale)
	header(cfg.Out, "%-8s %10s %12s", "trace", "S4LRU", "S4LRU-SCIP")
	for i, p := range gen.Profiles {
		fmt.Fprintf(cfg.Out, "%-8s %10.4f %12.4f\n", p, cells[2*i], cells[2*i+1])
	}
	return nil
}

// runAdmission compares SCIP with the related-work admission family.
func runAdmission(cfg Config) error {
	header(cfg.Out, "# Extension B — admission policies (paper §7), 64 GB-eq (scale %.4g)", cfg.Scale)
	builderSet, err := named(nil, "SCIP", "LRU", "2Q", "TinyLFU", "AdaptSize")
	if err != nil {
		return err
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

// runSharded measures throughput scaling of the concurrent sharded SCIP
// front across worker counts. Only the Mreq/s column is a wall-clock
// measurement; the missRatio column is deterministic because
// runner.ReplaySharded partitions the trace by shard, never by request
// index (TestModeInvariance).
func runSharded(cfg Config) error {
	header(cfg.Out, "# Extension C — sharded concurrent SCIP throughput (scale %.4g)", cfg.Scale)
	header(cfg.Out, "%-8s %-10s %10s %8s %14s %10s", "workers", "mode", "shards", "batch", "Mreq/s", "missRatio")
	tr, err := getTrace(gen.CDNT, cfg.Scale, cfg.Seeds[0])
	if err != nil {
		return err
	}
	capBytes := gen.CDNT.CacheBytes(gb(64), cfg.Scale)
	scip, err := lookupPolicy("SCIP", nil)
	if err != nil {
		return err
	}
	maxWorkers := runtime.GOMAXPROCS(0) * 2
	if maxWorkers > 8 {
		maxWorkers = 8
	}
	if maxWorkers < 4 {
		maxWorkers = 4
	}
	// The three concurrency configurations of DESIGN.md §10: per-request
	// mutex locking, mutex locking amortised over 64-request batches, and
	// the goroutine-per-shard actor path fed 64-request batches. The
	// missRatio column must agree across all of them (serial-order
	// invariant); only Mreq/s may differ.
	modes := []struct {
		name  string
		mode  shard.Mode
		batch int
	}{
		{"mutex", shard.ModeMutex, 1},
		{"batched", shard.ModeMutex, 64},
		{"actor", shard.ModeActor, 64},
	}
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		shards := workers * 2
		for _, m := range modes {
			c, err := shard.New("scip", capBytes, shards, func(cb int64, i int) cache.Policy {
				return scip(registry.Env{Capacity: cb, Seed: int64(i) + 1, Interval: scaledInterval(cfg.Scale)})
			}, shard.WithMode(m.mode))
			if err != nil {
				return err
			}
			start := time.Now() //scip:wallclock-ok metering only: feeds the Mreq/s column, never a cache decision
			hits := runner.ReplaySharded(tr.Requests, c, workers, m.batch)
			elapsed := time.Since(start).Seconds() //scip:wallclock-ok metering only: feeds the Mreq/s column, never a cache decision
			c.Close()
			total := len(tr.Requests)
			fmt.Fprintf(cfg.Out, "%-8d %-10s %10d %8d %14.2f %10.4f\n",
				workers, m.name, c.Shards(), m.batch, float64(total)/elapsed/1e6, 1-float64(hits)/float64(total))
		}
	}
	return nil
}
