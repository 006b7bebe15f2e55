// Command scip-load is a closed-loop concurrent load harness for the
// sharded cache front: it replays a trace partitioned across N worker
// goroutines against a sharded policy (any internal/registry name but
// Belady, or a composable "scorer:" admission spec), prints live
// interval snapshots (request rate, object and byte miss ratio, per-shard
// occupancy, p50/p99 access latency) and writes a final JSON report in the
// BENCH.json artefact style.
//
// Usage:
//
//	scip-load [-profile CDN-T] [-scale 0.01] [-seed 1] [-trace file] [-csv|-lrb]
//	    [-policy SCIP] [-cache 655MiB] [-shards 8] [-workers N] [-repeat 1]
//	    [-mode mutex|actor] [-batch N] [-depth N] [-nolat] [-gcstats]
//	    [-interval 1s] [-json LOAD.json]
//	    [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The trace is partitioned by shard, not by request index: every shard's
// request subsequence is replayed in trace order by exactly one worker, so
// each shard observes the identical access sequence regardless of the
// worker count and the final miss ratios are byte-identical across
// -workers 1 and -workers N. Workers are closed-loop: each issues its next
// request as soon as the previous one completes.
//
// -mode selects the shard concurrency mode (mutex locking or a goroutine
// per shard), -batch groups each shard's requests into AccessBatch calls
// of that size (amortising one lock acquisition or actor handoff per
// batch), and -nolat drops the per-request latency timing — the replay's
// only clock reads. None of the three changes a single counter
// (TestModeInvariance). -gcstats adds a live GC column to the interval
// reports. Per-mode throughput, scaling and GC cost are measured by the
// repository benchmark (benchmark/README.md, the shard.* and server.gc_*
// rows), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/stats"
	"github.com/scip-cache/scip/internal/trace"
)

// runLoad replays tr against c from `workers` goroutines, each owning the
// shards whose index ≡ worker (mod workers). batch > 1 groups each shard's
// requests into AccessBatch calls of that size; nolat disables the
// per-request latency timing, which is done driver-side with one clock
// read per request (stats.LatencyTicker reuses request N's completion
// timestamp as request N+1's start — valid because workers are
// closed-loop). It reports interval snapshots to out every `interval`
// (0 disables) and returns the final cumulative snapshot and the elapsed
// wall time. gcstats adds a GC delta column to each interval report —
// cycles, pause time and scannable heap — so a long replay shows live
// whether the pointer-free core is keeping GC cost flat.
func runLoad(tr *trace.Trace, c *shard.Cache, workers, repeat, batch int, nolat, gcstats bool, interval time.Duration, out io.Writer) (stats.Snapshot, time.Duration) {
	st := c.Stats()
	if st == nil {
		st = c.EnableStats()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > c.Shards() {
		workers = c.Shards() // extra workers would own no shard
	}
	if repeat < 1 {
		repeat = 1
	}
	// Precompute each request's shard once; workers then filter the shared
	// trace instead of materialising per-worker copies.
	shardOf := make([]int32, len(tr.Requests))
	for i, req := range tr.Requests {
		shardOf[i] = int32(c.ShardIndex(req.Key))
	}
	// Repeats shift timestamps by the trace span so per-shard time stays
	// monotonic; the shift is worker-independent, preserving determinism.
	var span int64
	if n := len(tr.Requests); n > 0 {
		span = tr.Requests[n-1].Time + 1
	}

	stop := make(chan struct{})
	var reporter sync.WaitGroup
	start := time.Now() //scip:wallclock-ok load-report metering: wall time of the replay, printed and written to JSON
	if interval > 0 && out != nil {
		reporter.Add(1)
		go func() {
			defer reporter.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			prev := st.Snapshot()
			prevT := time.Now() //scip:wallclock-ok console metering: interval report timestamps
			prevGC := stats.ReadGC()
			for {
				select {
				case <-stop:
					return
				case now := <-tick.C:
					cur := st.Snapshot()
					fmt.Fprintln(out, sim.FormatLoadInterval(now.Sub(start), now.Sub(prevT), cur.Sub(prev)))
					fmt.Fprintln(out, "  "+sim.FormatShardOccupancy(cur))
					if gcstats {
						gc := stats.ReadGC()
						fmt.Fprintf(out, "  gc: +%d cycles  pause +%s  heap-scan %.1f MiB  objects %d\n",
							gc.NumGC-prevGC.NumGC,
							(gc.PauseTotal - prevGC.PauseTotal).Round(time.Microsecond),
							float64(gc.HeapScanBytes)/(1<<20), gc.HeapObjects)
						prevGC = gc
					}
					prev, prevT = cur, now
				}
			}
		}()
	}

	lat := st.Latency()
	if nolat {
		lat = nil // nil histogram: the ticker becomes a no-op, zero clock reads
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tick := stats.NewLatencyTicker(lat)
			if batch <= 1 {
				tick.Start()
				for rep := 0; rep < repeat; rep++ {
					off := int64(rep) * span
					for i, req := range tr.Requests {
						if int(shardOf[i])%workers != w {
							continue
						}
						req.Time += off
						c.Access(req)
						tick.Tick()
					}
				}
				return
			}
			// One pending batch per owned shard, flushed when full and
			// once at the end — a shard's request order is exactly its
			// trace order, so batching is invisible to the counters.
			bufs := make([][]cache.Request, c.Shards())
			for s := w; s < c.Shards(); s += workers {
				bufs[s] = make([]cache.Request, 0, batch)
			}
			tick.Start()
			for rep := 0; rep < repeat; rep++ {
				off := int64(rep) * span
				for i, req := range tr.Requests {
					s := int(shardOf[i])
					if s%workers != w {
						continue
					}
					req.Time += off
					bufs[s] = append(bufs[s], req)
					if len(bufs[s]) == batch {
						c.AccessBatch(s, bufs[s], nil)
						tick.TickN(batch)
						bufs[s] = bufs[s][:0]
					}
				}
			}
			for s := w; s < c.Shards(); s += workers {
				if len(bufs[s]) > 0 {
					c.AccessBatch(s, bufs[s], nil)
					tick.TickN(len(bufs[s]))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start) //scip:wallclock-ok load-report metering: wall time of the replay
	close(stop)
	reporter.Wait()
	return st.Snapshot(), elapsed
}

func main() {
	profile := flag.String("profile", "CDN-T", "synthetic workload profile (CDN-T, CDN-W, CDN-A); ignored with -trace")
	scale := flag.Float64("scale", 0.01, "synthetic trace scale relative to the paper's workload")
	seed := flag.Int64("seed", 1, "generation and policy seed")
	tracePath := flag.String("trace", "", "replay this trace file instead of generating one")
	csv := flag.Bool("csv", false, "trace file is time,key,size CSV")
	lrbFmt := flag.Bool("lrb", false, "trace file is LRB-format")
	policy := flag.String("policy", "SCIP", "sharded policy: "+strings.Join(registry.Names(), ", ")+" (all but Belady, which needs a trace), or a scorer: spec")
	cacheSize := flag.String("cache", "", "cache capacity (KiB/MiB/GiB suffixes); default: profile's paper-scaled size")
	shards := flag.Int("shards", 8, "shard count (rounded up to a power of two)")
	workers := flag.Int("workers", 0, "concurrent workers (0 = GOMAXPROCS, clamped to the shard count)")
	repeat := flag.Int("repeat", 1, "replay the trace this many times")
	modeFlag := flag.String("mode", "mutex", "shard concurrency mode: mutex or actor (DESIGN.md §10)")
	batch := flag.Int("batch", 1, "requests per AccessBatch call (amortises one lock/handoff per batch; <=1 = per-request)")
	depth := flag.Int("depth", 0, "actor mailbox depth with -mode actor (0 = shard package default)")
	nolat := flag.Bool("nolat", false, "skip per-request latency timing (drops the replay's only clock reads)")
	gcstats := flag.Bool("gcstats", false, "add a GC column (cycles, pause, heap-scan bytes) to each interval report")
	interval := flag.Duration("interval", 1*time.Second, "live snapshot period (0 disables)")
	jsonPath := flag.String("json", "LOAD.json", "write the final report as JSON to this path (empty disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" || *memProfile != "" {
		stopProfiles, err := sim.StartProfiles(*cpuProfile, *memProfile)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := stopProfiles(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var (
		tr       *trace.Trace
		capBytes int64
		err      error
	)
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fail(err)
		}
		switch {
		case *csv:
			tr, err = trace.ReadCSV(f, *tracePath)
		case *lrbFmt:
			tr, err = trace.ReadLRB(f, *tracePath)
		default:
			tr, err = trace.ReadBinary(f, *tracePath)
		}
		f.Close()
		if err != nil {
			fail(err)
		}
		if *cacheSize == "" {
			fail(fmt.Errorf("-cache is required with -trace"))
		}
	} else {
		var prof gen.Profile
		for _, p := range gen.Profiles {
			if strings.EqualFold(string(p), *profile) {
				prof = p
			}
		}
		if prof == "" {
			fail(fmt.Errorf("unknown profile %q (want CDN-T, CDN-W or CDN-A)", *profile))
		}
		tr, err = gen.Generate(prof.Config(*scale, *seed))
		if err != nil {
			fail(err)
		}
		capBytes = prof.CacheBytes(64<<30, *scale)
	}
	if *cacheSize != "" {
		capBytes, err = trace.ParseBytes(*cacheSize)
		if err != nil {
			fail(fmt.Errorf("bad -cache: %w", err))
		}
	}

	mode, err := shard.ParseMode(*modeFlag)
	if err != nil {
		fail(err)
	}
	opts := []shard.Option{shard.WithMode(mode)}
	if *depth > 0 {
		opts = append(opts, shard.WithActorDepth(*depth))
	}
	c, err := server.BuildSharded(*policy, capBytes, *shards, *seed, opts...)
	if err != nil {
		fail(err)
	}
	defer c.Close()
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("scip-load: %s  trace=%s (%d requests x%d)  cache=%.1f MiB  shards=%d  workers=%d  mode=%s batch=%d\n",
		c.Name(), tr.Name, len(tr.Requests), *repeat, float64(capBytes)/(1<<20), c.Shards(), min(nWorkers, c.Shards()), mode, *batch)

	snap, elapsed := runLoad(tr, c, nWorkers, *repeat, *batch, *nolat, *gcstats, *interval, os.Stdout)

	rep := sim.BuildLoadReport(snap, elapsed)
	rep.GeneratedUnix = time.Now().Unix() //scip:wallclock-ok report metadata: records when the run happened, never feeds a decision
	rep.Trace = tr.Name
	rep.Policy = c.Name()
	rep.CacheBytes = capBytes
	rep.Shards = c.Shards()
	rep.Workers = min(nWorkers, c.Shards())
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Repeat = *repeat

	fmt.Printf("done: %d requests in %.2fs (%.0f req/s)  miss=%.4f byteMiss=%.4f  occSkew=%.3f  p50=%s p99=%s\n",
		rep.Requests, rep.TotalSeconds, rep.RPS, rep.MissRatio, rep.ByteMissRatio,
		rep.OccupancySkew,
		snap.LatencyQuantile(0.50).Round(time.Nanosecond),
		snap.LatencyQuantile(0.99).Round(time.Nanosecond))
	if *jsonPath != "" {
		if err := sim.WriteJSON(*jsonPath, rep); err != nil {
			fail(err)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}
}
