package exp

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/shard"
)

// TestShardedReplayWorkerInvariant pins the fix for the Extension C miss
// ratio: runSharded used to split the trace into contiguous index ranges,
// one per worker, so each shard received its requests interleaved across
// workers in scheduler order and the hit count varied run to run. The
// replay (runner.ReplaySharded) partitions by shard — worker w owns the
// shards with index ≡ w mod workers — which keeps every shard's request
// subsequence in trace order, so the hit count must be identical for
// every worker count (and equal to a serial replay).
func TestShardedReplayWorkerInvariant(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.0008, 3))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *shard.Cache {
		c, err := shard.New("scip", 1<<24, 8, func(cb int64, i int) cache.Policy {
			return core.NewCache(cb, core.WithSeed(int64(i)+1), core.WithInterval(2000))
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var want int64
	first := true
	for _, workers := range []int{1, 2, 3, 4, 8} {
		// Batch size must be invisible too: batching only amortises
		// synchronisation, it never reorders a shard's subsequence.
		for _, batch := range []int{1, 7, 64} {
			hits := runner.ReplaySharded(tr.Requests, build(), workers, batch)
			if first {
				want, first = hits, false
				continue
			}
			if hits != want {
				t.Fatalf("workers=%d batch=%d: hits=%d, want %d (serial replay)", workers, batch, hits, want)
			}
		}
	}
}
