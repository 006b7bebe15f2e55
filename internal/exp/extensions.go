package exp

import (
	"fmt"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/shard"
)

func init() {
	register(Runner{Name: "ext", Title: "Extension C: sharded concurrent SCIP throughput", Run: runSharded})
}

// runSharded measures throughput scaling of the concurrent sharded SCIP
// front across worker counts. Only the Mreq/s column is a wall-clock
// measurement; the missRatio column is deterministic because
// runner.ReplaySharded partitions the trace by shard, never by request
// index (TestModeInvariance).
func runSharded(cfg Config) error {
	header(cfg.Out, "# Extension C — sharded concurrent SCIP throughput, %s (scale %.4g)", gen.CDNT, cfg.Scale)
	header(cfg.Out, "%-8s %-10s %10s %8s %14s %10s", "workers", "mode", "shards", "batch", "Mreq/s", "missRatio")
	tr, err := getTrace(gen.CDNT, cfg.Scale, cfg.Seeds[0])
	if err != nil {
		return err
	}
	capBytes := gen.CDNT.CacheBytes(gb(64), cfg.Scale)
	scip, err := registry.Lookup("SCIP", nil)
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
			start := time.Now() // metering only: feeds the Mreq/s column, never a cache decision
			hits := runner.ReplaySharded(tr.Requests, c, workers, m.batch)
			elapsed := time.Since(start).Seconds() // metering only: feeds the Mreq/s column, never a cache decision
			c.Close()
			total := len(tr.Requests)
			fmt.Fprintf(cfg.Out, "%-8d %-10s %10d %8d %14.2f %10.4f\n",
				workers, m.name, c.Shards(), m.batch, float64(total)/elapsed/1e6, 1-float64(hits)/float64(total))
		}
	}
	return nil
}
