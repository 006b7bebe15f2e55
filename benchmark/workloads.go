package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/gen"
)

// Every workload runs policy SCIP, 8 shards, mutex mode, policy seed 1.
// The harness seed only seeds the generated inputs (trace, arrival
// schedule): the programs under test receive nothing but those inputs.
const (
	policyName = "SCIP"
	policySeed = 1
	shardCount = 8
	// paperCacheBytes is the paper's 64 GB cache, scaled per workload by
	// gen.Profile.CacheBytes so the cache-to-working-set ratio holds.
	paperCacheBytes = 64 << 30
	// maxBody is the synthetic origin's body cap: declared sizes above it
	// are accounted in full but served as 64 KiB.
	maxBody = 64 << 10
	// window is the latency window: percentiles are computed per window
	// and the median across windows is reported, so one scheduler stall
	// does not decide a run.
	window = 2 * time.Second
	// chunkReqs is the replay latency unit: lat_* on a replay workload is
	// the wall time one worker needs for this many consecutive accesses.
	chunkReqs = 1024
)

type kind int

const (
	kindReplay kind = iota // in-process closed-loop replay through shard.Cache
	kindServe              // one scip-serve
	kindRoute              // scip-route in front of three scip-serve nodes
)

// workload fixes one traffic mix. BENCHMARK.json carries the name and
// the reason; the sizes and rates live here because that file's schema
// has no room for them.
type workload struct {
	name    string
	kind    kind
	profile gen.Profile // trace profile; "" = the synthetic hot set of serve-hot
	scale   float64
	// cacheBytes is the total cache capacity: one cache (replay), one
	// node (serve) or each of the three nodes (route).
	cacheBytes int64
	// warm is the number of leading stream requests replayed closed-loop
	// before timing starts (served workloads; counted in setup_s).
	warm int
	// mid is the gated arrival rate, high the diagnostic one (req/s).
	mid, high float64
	// putEvery/deleteEvery turn every n-th stream request into a PUT or
	// DELETE of that object (0 = GET only).
	putEvery, deleteEvery int
	originLatency         time.Duration
}

// Hot-set shape of serve-hot.
const (
	hotKeys  = 512
	hotSize  = 1 << 10
	hotAlpha = 0.9
)

var workloads = []workload{
	{name: "replay-cdnw", kind: kindReplay, profile: gen.CDNW, scale: 0.05,
		cacheBytes: gen.CDNW.CacheBytes(paperCacheBytes, 0.05)},
	{name: "replay-cdna", kind: kindReplay, profile: gen.CDNA, scale: 0.05,
		cacheBytes: gen.CDNA.CacheBytes(paperCacheBytes, 0.05)},
	{name: "serve-hot", kind: kindServe, cacheBytes: 64 << 20,
		warm: 8192, mid: 6000, high: 9000},
	{name: "serve-cdnt", kind: kindServe, profile: gen.CDNT, scale: 0.01,
		cacheBytes: gen.CDNT.CacheBytes(paperCacheBytes, 0.01),
		warm:       20000, mid: 1500, high: 3000, putEvery: 50, deleteEvery: 400},
	{name: "route-cdnw", kind: kindRoute, profile: gen.CDNW, scale: 0.004,
		cacheBytes: gen.CDNW.CacheBytes(paperCacheBytes, 0.004) / routeNodes,
		warm:       20000, mid: 600, high: 1200, putEvery: 50, deleteEvery: 400,
		originLatency: 2 * time.Millisecond},
}

const routeNodes = 3

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload for the smoke test: scale ÷ 10 (cache with
// it, so the cache-to-working-set ratio holds) and warm-up ÷ 10.
func (w workload) quick() workload {
	if w.profile != "" {
		w.scale /= 10
		w.cacheBytes /= 10
	}
	w.warm /= 10
	return w
}

// connections is the client's keep-alive connection count. One polling
// goroutine drives them all, so the count is not tied to the CPUs: it is
// sized so that a free connection is there when a request falls due
// even while a few 2 ms origin fetches are in flight — otherwise
// latency from the due time would mostly measure the wait for a
// connection.
const connections = 8

// replayWorkers is the replay's worker count: min(nproc, 4).
func replayWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}
