package runner

import (
	"sync"
	"sync/atomic"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/shard"
)

// ReplaySharded replays reqs against the sharded cache from `workers`
// goroutines, partitioning the trace BY SHARD (worker w owns the shards
// with index ≡ w mod workers), never by request index: every shard sees
// its request subsequence in exact trace order regardless of the worker
// count, so each per-shard policy makes identical decisions and the
// returned hit count is byte-identical across worker counts, batch sizes
// and shard.Cache modes. batch > 1 groups each shard's requests into
// batches of that size and issues them through AccessBatch, amortising
// one synchronisation round (lock acquisition or actor handoff) across
// the batch; batch <= 1 issues per-request Access calls. This is the
// module's one shard-partitioned replay loop: Extension C is built on it,
// and TestModeInvariance and TestWorkerCountInvariance fence it.
func ReplaySharded(reqs []cache.Request, c *shard.Cache, workers, batch int) int64 {
	if workers < 1 {
		workers = 1
	}
	if workers > c.Shards() {
		workers = c.Shards()
	}
	shardOf := make([]int32, len(reqs))
	for i, r := range reqs {
		shardOf[i] = int32(c.ShardIndex(r.Key))
	}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var h int64
			if batch <= 1 {
				for i, req := range reqs {
					if int(shardOf[i])%workers != w {
						continue
					}
					if c.Access(req) {
						h++
					}
				}
				hits.Add(h)
				return
			}
			// One pending batch per owned shard; a shard's batch is
			// flushed when full and once at the end, so its request
			// order is exactly its trace order.
			bufs := make([][]cache.Request, c.Shards())
			for s := w; s < c.Shards(); s += workers {
				bufs[s] = make([]cache.Request, 0, batch)
			}
			for i, req := range reqs {
				s := int(shardOf[i])
				if s%workers != w {
					continue
				}
				bufs[s] = append(bufs[s], req)
				if len(bufs[s]) == batch {
					h += int64(c.AccessBatch(s, bufs[s], nil))
					bufs[s] = bufs[s][:0]
				}
			}
			for s := w; s < c.Shards(); s += workers {
				if len(bufs[s]) > 0 {
					h += int64(c.AccessBatch(s, bufs[s], nil))
				}
			}
			hits.Add(h)
		}(w)
	}
	wg.Wait()
	return hits.Load()
}
