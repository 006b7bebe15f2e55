package runner

import (
	"testing"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/stats"
	"github.com/scip-cache/scip/internal/trace"
)

// fencePolicies are the policies both fences replay: SCIP (whose bandit,
// λ and ghost lists are the order-sensitive state the fences exist for),
// plain LRU, and LRB's learned eviction.
var fencePolicies = []string{"SCIP", "LRU", "LRB"}

// fenceTrace is the CDN-T trace and cache size both fences replay.
func fenceTrace(t *testing.T) (*trace.Trace, int64) {
	t.Helper()
	tr, err := gen.Generate(gen.CDNT.Config(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	return tr, gen.CDNT.CacheBytes(64<<30, 0.001)
}

// replayCounters builds policy as an 8-shard front, replays tr through
// ReplaySharded and returns the per-shard counters. The hit count
// ReplaySharded returns must equal the counters' total, since Extension C
// prints its miss ratio from it.
func replayCounters(t *testing.T, tr *trace.Trace, capBytes int64, policy string, workers, batch int, opts ...shard.Option) stats.Snapshot {
	t.Helper()
	c, err := server.BuildSharded(policy, capBytes, 8, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	hits := ReplaySharded(tr.Requests, c, workers, batch)
	c.Close()
	snap := st.Snapshot()
	if got := snap.Totals().Hits; got != hits {
		t.Fatalf("%s workers=%d batch=%d: ReplaySharded returned %d hits, counters hold %d",
			policy, workers, batch, hits, got)
	}
	return snap
}

// divergentShard returns the first shard whose six counters (requests,
// hits, bytes requested, bytes hit, evictions, used bytes) differ between
// a and b, or -1 when every shard agrees.
func divergentShard(a, b stats.Snapshot) int {
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			return i
		}
	}
	return -1
}

// TestWorkerCountInvariance is the replay loop's core correctness
// property: because the trace is partitioned by shard, every shard sees
// the identical request subsequence in the identical order no matter how
// many workers replay it — so hit, byte-hit and eviction counters must be
// byte-identical between one worker and four.
func TestWorkerCountInvariance(t *testing.T) {
	tr, capBytes := fenceTrace(t)
	for _, policy := range fencePolicies {
		serial := replayCounters(t, tr, capBytes, policy, 1, 1)
		concurrent := replayCounters(t, tr, capBytes, policy, 4, 1)
		if n := serial.Totals().Requests; n != int64(len(tr.Requests)) {
			t.Fatalf("%s: serial run saw %d requests, trace has %d", policy, n, len(tr.Requests))
		}
		if i := divergentShard(serial, concurrent); i >= 0 {
			t.Fatalf("%s: shard %d diverges across worker counts:\n  1 worker:  %+v\n  4 workers: %+v",
				policy, i, serial.Shards[i], concurrent.Shards[i])
		}
		if serial.MissRatio() != concurrent.MissRatio() ||
			serial.ByteMissRatio() != concurrent.ByteMissRatio() {
			t.Fatalf("%s: miss ratios diverge: %v/%v vs %v/%v", policy,
				serial.MissRatio(), serial.ByteMissRatio(),
				concurrent.MissRatio(), concurrent.ByteMissRatio())
		}
	}
}

// TestModeInvariance is the acceptance gate for the concurrency modes:
// for every policy, every combination of worker count, shard mode, batch
// size and actor mailbox depth must produce byte-identical per-shard
// counters. A mode that reorders even one shard's request subsequence, or
// a batch path that accounts evictions differently, fails here. Worker
// count 3 does not divide the 8 shards, so workers own unequal shard
// sets; batch sizes 3 and 7 leave a remainder flushed at the end; an
// actor mailbox of depth 4 is shallower than a 64-request batch.
func TestModeInvariance(t *testing.T) {
	tr, capBytes := fenceTrace(t)
	type variant struct {
		name     string
		mode     shard.Mode
		batch    int
		depth    int  // actor mailbox depth; 0 = shard package default
		scipOnly bool // extra rows run for SCIP, the order-sensitive policy
	}
	variants := []variant{
		{"mutex", shard.ModeMutex, 1, 0, false},
		{"batched", shard.ModeMutex, 64, 0, false},
		{"actor", shard.ModeActor, 64, 0, false},
		{"batched-3", shard.ModeMutex, 3, 0, true},
		{"batched-7", shard.ModeMutex, 7, 0, true},
		{"actor-1-depth4", shard.ModeActor, 1, 4, true},
		{"actor-64-depth4", shard.ModeActor, 64, 4, true},
	}
	for _, policy := range fencePolicies {
		var want stats.Snapshot
		first := true
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, v := range variants {
				if v.scipOnly && policy != "SCIP" {
					continue
				}
				opts := []shard.Option{shard.WithMode(v.mode)}
				if v.depth > 0 {
					opts = append(opts, shard.WithActorDepth(v.depth))
				}
				snap := replayCounters(t, tr, capBytes, policy, workers, v.batch, opts...)
				if first {
					want, first = snap, false
					continue
				}
				if i := divergentShard(want, snap); i >= 0 {
					t.Fatalf("%s %s workers=%d batch=%d: shard %d diverges:\n  reference: %+v\n  got:       %+v",
						policy, v.name, workers, v.batch, i, want.Shards[i], snap.Shards[i])
				}
			}
		}
	}
}
