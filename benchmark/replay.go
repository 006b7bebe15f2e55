package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/stats"
)

// replayOpts selects the shard-layer variant one replay pass runs.
type replayOpts struct {
	workers int
	mode    shard.Mode
	batch   int  // > 1: group each shard's requests into AccessBatch calls
	noStats bool // leave the per-shard stats block off
}

// replayPass is the outcome of one replay of the whole trace through a
// fresh sharded cache.
type replayPass struct {
	elapsed time.Duration
	snap    stats.Snapshot  // zero with noStats
	hits    int64           // counted from Access results
	chunks  []time.Duration // wall time of each chunkReqs-request chunk, all workers
}

// newSharded builds the cache every workload fronts: the construction
// scip-serve and scip-load share.
func newSharded(capBytes int64, opts ...shard.Option) (*shard.Cache, error) {
	return server.BuildSharded(policyName, capBytes, shardCount, policySeed, opts...)
}

// shardPartition maps each trace request to its shard once, so workers
// filter the shared trace instead of copying it.
func shardPartition(tr []cache.Request) ([]int32, error) {
	c, err := newSharded(1 << 20)
	if err != nil {
		return nil, err
	}
	shardOf := make([]int32, len(tr))
	for i, r := range tr {
		shardOf[i] = int32(c.ShardIndex(r.Key))
	}
	return shardOf, nil
}

// replay runs the trace closed-loop through a fresh cache. The trace is
// partitioned by shard — worker w owns the shards ≡ w (mod workers) and
// replays their requests in trace order — so every counter is
// independent of the worker count, mode and batching.
func replay(tr []cache.Request, shardOf []int32, capBytes int64, o replayOpts) (replayPass, error) {
	c, err := newSharded(capBytes, shard.WithMode(o.mode))
	if err != nil {
		return replayPass{}, err
	}
	defer c.Close()
	var st *stats.Stats
	if !o.noStats {
		st = c.EnableStats()
	}
	workers := o.workers
	if workers > c.Shards() {
		workers = c.Shards()
	}
	hits := make([]int64, workers)
	chunks := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, len(tr)/chunkReqs/workers+shardCount)
			var n, h int64
			last := time.Now()
			if o.batch <= 1 {
				for i, req := range tr {
					if int(shardOf[i])%workers != w {
						continue
					}
					if c.Access(req) {
						h++
					}
					if n++; n == chunkReqs {
						now := time.Now()
						mine = append(mine, now.Sub(last))
						last, n = now, 0
					}
				}
			} else {
				// chunkReqs is a multiple of every batch size used, so a
				// chunk is still exactly chunkReqs requests.
				bufs := make([][]cache.Request, c.Shards())
				for s := w; s < c.Shards(); s += workers {
					bufs[s] = make([]cache.Request, 0, o.batch)
				}
				for i, req := range tr {
					s := int(shardOf[i])
					if s%workers != w {
						continue
					}
					bufs[s] = append(bufs[s], req)
					if len(bufs[s]) < o.batch {
						continue
					}
					h += int64(c.AccessBatch(s, bufs[s], nil))
					bufs[s] = bufs[s][:0]
					if n += int64(o.batch); n >= chunkReqs {
						now := time.Now()
						mine = append(mine, now.Sub(last))
						last, n = now, 0
					}
				}
				for s := w; s < c.Shards(); s += workers {
					if len(bufs[s]) > 0 {
						h += int64(c.AccessBatch(s, bufs[s], nil))
					}
				}
			}
			hits[w], chunks[w] = h, mine
		}(w)
	}
	wg.Wait()
	p := replayPass{elapsed: time.Since(start)}
	for w := range hits {
		p.hits += hits[w]
		p.chunks = append(p.chunks, chunks[w]...)
	}
	if st != nil {
		p.snap = st.Snapshot()
	}
	return p, nil
}

// resetPeakRSS returns what the collector can to the kernel and restarts
// this process's peak-RSS watermark (VmHWM).
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // not fatal: the peak then covers the whole process
}

// selfCPU returns this process's user + system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// replayRun is the end-to-end measurement of a replay workload.
type replayRun struct {
	requests   int
	setupS     []float64 // one per set-up repetition
	genS       float64
	reqPerS    []float64 // one per timed repetition at workers = n
	reqPerS1   float64   // the workers = 1 repetition
	p50US      []float64 // chunk-latency quantiles, one per repetition
	cpuPerReq  float64   // µs, over the timed repetitions
	snap       stats.Snapshot
	gateErrors []string
}

// runReplay sets up `setups` times (trace generation + shard partition;
// the median is setup_s), replays once at workers = 1 for the
// worker-invariance gate, then replays at workers = n with a fresh cache
// per repetition until the time is up (at least three repetitions).
func runReplay(w workload, seed int64, seconds float64, setups int) (*replayRun, error) {
	r := &replayRun{}
	// The trace stays in locals of its own: r holds timings, and
	// scip-vet's clocktaint (which tracks whole variables) would see the
	// clock flow into the cache through it.
	var tr []cache.Request
	var shardOf []int32
	for s := 0; s < setups; s++ {
		tr, shardOf = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if tr, err = genTrace(w, seed); err != nil {
			return nil, err
		}
		r.genS = time.Since(t0).Seconds()
		if shardOf, err = shardPartition(tr); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.requests = len(tr)
	resetPeakRSS() // rss_mib is the peak of the repetitions, not of the set-ups or of an earlier workload
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))

	one, err := replay(tr, shardOf, w.cacheBytes, replayOpts{workers: 1})
	if err != nil {
		return nil, err
	}
	r.reqPerS1 = float64(r.requests) / one.elapsed.Seconds()

	var cpu time.Duration
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		runtime.GC()
		cpu0 := selfCPU()
		p, err := replay(tr, shardOf, w.cacheBytes, replayOpts{workers: replayWorkers()})
		if err != nil {
			return nil, err
		}
		cpu += selfCPU() - cpu0
		r.reqPerS = append(r.reqPerS, float64(r.requests)/p.elapsed.Seconds())
		sort.Slice(p.chunks, func(i, j int) bool { return p.chunks[i] < p.chunks[j] })
		r.p50US = append(r.p50US, float64(quantile(p.chunks, 0.50))/1e3)
		if !reflect.DeepEqual(p.snap.Shards, one.snap.Shards) {
			r.gateErrors = append(r.gateErrors, fmt.Sprintf(
				"repetition %d at workers=%d disagrees with workers=1 on a per-shard counter", rep, replayWorkers()))
		}
		r.snap = p.snap
	}
	r.cpuPerReq = float64(cpu) / 1e3 / float64(len(r.reqPerS)*r.requests)
	tot := r.snap.Totals()
	if tot.Requests != int64(r.requests) {
		r.gateErrors = append(r.gateErrors, fmt.Sprintf("stats counted %d requests, the trace has %d", tot.Requests, r.requests))
	}
	if one.hits != tot.Hits {
		r.gateErrors = append(r.gateErrors, fmt.Sprintf("Access returned %d hits, stats counted %d", one.hits, tot.Hits))
	}
	return r, nil
}
