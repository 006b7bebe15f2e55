//go:build !race

// The race detector makes sync.Pool drop a share of Puts at random, so
// the actor mode's pooled reply channels are reallocated and allocation
// counts measure the detector, not the code. `make test` runs this pin.

package scip_test

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/cluster"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/shard"
)

// hotPathWarmPasses is how many whole trace passes each row replays
// before measuring. Buffers grow to their high-water marks over the
// first passes: on this trace every row still allocates on its third
// pass and SCI on its fourth, so six leave a margin.
const hotPathWarmPasses = 6

// TestHotPathsAllocateNothing pins the zero-allocation data plane: once
// warm, a whole pass of the replay hot-path trace through each per-request
// entry point — SCIP and SCI inside their QueueCache (learning intervals
// firing), the shard front's Access and AccessBatch in both modes with
// stats on, and the cluster's hot-key sketch and ring — allocates
// nothing.
//
// A run of testing.AllocsPerRun is one whole trace pass, not one access:
// AllocsPerRun integer-divides the malloc count by the run count, so a
// per-access pin over a varied trace reads 0 unless every access
// allocates, and an allocation on the eviction, history or MAB-interval
// path would slip through. With one pass per run, a single allocation
// anywhere in the pass reads as at least 1.
func TestHotPathsAllocateNothing(t *testing.T) {
	reqs, capBytes := steadyStateTrace(t)
	opts := []core.Option{core.WithSeed(1), core.WithInterval(2000)}

	replay := func(p cache.Policy) func() {
		return func() {
			for _, r := range reqs {
				p.Access(r)
			}
		}
	}
	newShard := func(t *testing.T, mode shard.Mode) *shard.Cache {
		c, err := shard.New("scip", capBytes, 16, func(cb int64, _ int) cache.Policy {
			return core.NewCache(cb, opts...)
		}, shard.WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		c.EnableStats()
		return c
	}
	// batched replays each shard's requests in trace order, 64 at a
	// time, through AccessBatch — the shard-partitioned replay shape.
	batched := func(c *shard.Cache) func() {
		perShard := make([][]cache.Request, c.Shards())
		for _, r := range reqs {
			i := c.ShardIndex(r.Key)
			perShard[i] = append(perShard[i], r)
		}
		hits := make([]bool, 64)
		return func() {
			for i, rs := range perShard {
				for len(rs) > 0 {
					n := min(len(rs), len(hits))
					c.AccessBatch(i, rs[:n], hits[:n])
					rs = rs[n:]
				}
			}
		}
	}

	rows := []struct {
		name string
		pass func(t *testing.T) func()
	}{
		{"SCIP", func(*testing.T) func() { return replay(core.NewCache(capBytes, opts...)) }},
		{"SCI", func(*testing.T) func() { return replay(core.NewSCICache(capBytes, opts...)) }},
		{"shard/mutex/Access", func(t *testing.T) func() { return replay(newShard(t, shard.ModeMutex)) }},
		{"shard/actor/Access", func(t *testing.T) func() { return replay(newShard(t, shard.ModeActor)) }},
		{"shard/mutex/AccessBatch", func(t *testing.T) func() { return batched(newShard(t, shard.ModeMutex)) }},
		{"shard/actor/AccessBatch", func(t *testing.T) func() { return batched(newShard(t, shard.ModeActor)) }},
		{"cluster/SketchRing", func(t *testing.T) func() {
			sk := cluster.NewSketch(1 << 14)
			ring, err := cluster.NewRing([]string{"node-a", "node-b", "node-c"}, 64)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int, 0, 2)
			var sink int
			return func() {
				for _, r := range reqs {
					sink += int(sk.Observe(r.Key)) + int(sk.Estimate(r.Key))
					sink += ring.Lookup(r.Key)
					dst = ring.ReplicasInto(r.Key, 2, dst)
					sink += dst[0]
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pass := row.pass(t)
			for i := 0; i < hotPathWarmPasses; i++ {
				pass()
			}
			if a := testing.AllocsPerRun(1, pass); a != 0 {
				t.Fatalf("a warm trace pass (%d requests) allocates %.0f times, want 0", len(reqs), a)
			}
		})
	}
}
