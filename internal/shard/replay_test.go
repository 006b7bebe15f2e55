package shard_test

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/runner"
	"github.com/scip-cache/scip/internal/shard"
)

// TestShardModeCountersInvariant: the per-shard counter blocks must be
// byte-identical across ModeMutex per-request, ModeMutex batched (several
// batch sizes) and ModeActor replays of the same shard-partitioned trace,
// at several worker counts. This is the serial-order invariant the
// concurrency modes are built on (DESIGN.md §10); the latency histogram
// is wall-clock and is deliberately not compared. The replay is
// runner.ReplaySharded, the module's one shard-partitioned loop; this
// test lives in an external package so it can drive it.
func TestShardModeCountersInvariant(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.0008, 3))
	if err != nil {
		t.Fatal(err)
	}
	scip := func(capBytes int64, i int) cache.Policy {
		return core.NewCache(capBytes, core.WithSeed(int64(i)+1), core.WithInterval(2000))
	}
	type variant struct {
		name    string
		mode    shard.Mode
		workers int
		batch   int
	}
	variants := []variant{{"mutex-serial", shard.ModeMutex, 1, 1}}
	for _, w := range []int{2, 4, 8} {
		variants = append(variants,
			variant{"mutex", shard.ModeMutex, w, 1},
			variant{"batched-3", shard.ModeMutex, w, 3},
			variant{"batched-64", shard.ModeMutex, w, 64},
			variant{"actor-1", shard.ModeActor, w, 1},
			variant{"actor-64", shard.ModeActor, w, 64},
		)
	}
	var want []int64
	for _, v := range variants {
		c, err := shard.New("scip", 1<<24, 8, scip, shard.WithMode(v.mode), shard.WithActorDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		st := c.EnableStats()
		runner.ReplaySharded(tr.Requests, c, v.workers, v.batch)
		c.Close()
		snap := st.Snapshot()
		var got []int64
		for _, sh := range snap.Shards {
			got = append(got, sh.Requests, sh.Hits, sh.BytesRequested, sh.BytesHit, sh.Evictions, sh.UsedBytes)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s workers=%d: counter %d = %d, want %d (serial replay)",
					v.name, v.workers, i, got[i], want[i])
			}
		}
	}
}
