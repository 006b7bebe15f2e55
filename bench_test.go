// Package-level benchmarks: one per table/figure of the paper (each
// re-runs the corresponding experiment at a reduced scale and reports
// ns/op for the whole regeneration), plus ablation and micro benchmarks
// for the design choices DESIGN.md calls out. The full-scale regenerations
// live in cmd/scip-bench.
package scip_test

import (
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	scip "github.com/scip-cache/scip"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/exp"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/lrb"
	"github.com/scip-cache/scip/internal/ml"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/stats"
)

// benchCfg is the reduced-scale configuration the figure benchmarks run.
func benchCfg() exp.Config {
	return exp.Config{Scale: 0.001, Seeds: []int64{1}, Out: io.Discard, Quick: true}
}

// runFigure benches a whole experiment regeneration.
func runFigure(b *testing.B, name string) {
	b.Helper()
	r, ok := exp.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Stats(b *testing.B)               { runFigure(b, "table1") }
func BenchmarkFig1ZROAnalysis(b *testing.B)           { runFigure(b, "fig1") }
func BenchmarkFig3Oracle(b *testing.B)                { runFigure(b, "fig3") }
func BenchmarkFig4ModelAccuracy(b *testing.B)         { runFigure(b, "fig4") }
func BenchmarkFig6TDC(b *testing.B)                   { runFigure(b, "fig6") }
func BenchmarkFig7SCIPvsSCI(b *testing.B)             { runFigure(b, "fig7") }
func BenchmarkFig8InsertionPolicies(b *testing.B)     { runFigure(b, "fig8") }
func BenchmarkFig9InsertionResources(b *testing.B)    { runFigure(b, "fig9") }
func BenchmarkFig10Replacement(b *testing.B)          { runFigure(b, "fig10") }
func BenchmarkFig11ReplacementResources(b *testing.B) { runFigure(b, "fig11") }
func BenchmarkFig12Enhance(b *testing.B)              { runFigure(b, "fig12") }

// --- Ablation benchmarks (DESIGN.md §6): SCIP variants on one workload.

func ablationTrace(b *testing.B) (*scip.Trace, int64) {
	b.Helper()
	tr, err := scip.GenerateProfile(scip.CDNT, 0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tr, gen.CDNT.CacheBytes(64<<30, 0.001)
}

func benchVariant(b *testing.B, opts ...core.Option) {
	b.Helper()
	tr, capBytes := ablationTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := append([]core.Option{core.WithSeed(1), core.WithInterval(2000)}, opts...)
		res := sim.Run(tr, core.NewCache(capBytes, base...), sim.Options{WarmupFrac: 0.2})
		b.ReportMetric(res.MissRatio(), "missRatio")
	}
}

func BenchmarkAblationDefault(b *testing.B)      { benchVariant(b) }
func BenchmarkAblationHistorySize(b *testing.B)  { benchVariant(b, core.WithHistoryFraction(0.25)) }
func BenchmarkAblationHistoryFull(b *testing.B)  { benchVariant(b, core.WithHistoryFraction(1.0)) }
func BenchmarkAblationInterval(b *testing.B)     { benchVariant(b, core.WithInterval(500)) }
func BenchmarkAblationUnifiedModel(b *testing.B) { benchVariant(b, core.WithUnifiedModel()) }
func BenchmarkAblationNoDueling(b *testing.B)    { benchVariant(b, core.WithDueling(0)) }
func BenchmarkAblationNoEvictSignal(b *testing.B) {
	benchVariant(b, core.WithEvictGain(0))
}
func BenchmarkAblationNoHitSignal(b *testing.B) { benchVariant(b, core.WithHitGain(0)) }
func BenchmarkAblationForceNone(b *testing.B)   { benchVariant(b, core.WithForceMode(core.ForceNone)) }

// --- Micro benchmarks: per-access cost of the core data paths.

func benchAccess(b *testing.B, p cache.Policy) {
	b.Helper()
	tr, err := scip.GenerateProfile(scip.CDNT, 0.001, 2)
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Requests
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(reqs[i%len(reqs)])
	}
}

func BenchmarkAccessLRU(b *testing.B) {
	benchAccess(b, cache.NewLRU(64<<30/1000))
}

func BenchmarkAccessSCIP(b *testing.B) {
	benchAccess(b, core.NewCache(64<<30/1000, core.WithSeed(1)))
}

func BenchmarkQueuePushEvict(b *testing.B) {
	a := cache.NewArena(1024)
	q := a.NewQueue()
	handles := make([]cache.Handle, 1024)
	for i := range handles {
		h := a.Alloc()
		e := a.At(h)
		e.Key = uint64(i)
		e.Size = 1
		handles[i] = h
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := handles[i%1024]
		if a.At(h).InQueue() {
			q.Remove(h)
		}
		q.PushFront(h)
		if q.Len() > 512 {
			q.Remove(q.Back())
		}
	}
}

func BenchmarkHistoryAddDelete(b *testing.B) {
	h := cache.NewHistory(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(uint64(i%4096), 256, cache.ResInserted)
		if i%3 == 0 {
			h.Delete(uint64((i - 1) % 4096))
		}
	}
}

// --- Replay hot-path benchmarks: per-request cost and allocations of the
// zero-allocation steady-state loop (eviction-fed Entry freelist, hoisted
// ResidencyObserver, pre-sized index). Run with -benchmem or rely on
// ReportAllocs: steady-state LRU replay should report 0 allocs/op.

// steadyStateTrace is the replay hot-path workload: CDN-T at scale 0.001,
// seed 3 (78 750 requests), and the cache size that scale implies.
func steadyStateTrace(tb testing.TB) (reqs []cache.Request, capBytes int64) {
	tr, err := scip.GenerateProfile(scip.CDNT, 0.001, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Requests, gen.CDNT.CacheBytes(64<<30, 0.001)
}

// benchReplaySteadyState replays a trace through an already-warm policy so
// every miss is served from the eviction-fed freelist.
func benchReplaySteadyState(b *testing.B, build func(capBytes int64) cache.Policy) {
	reqs, capBytes := steadyStateTrace(b)
	p := build(capBytes)
	for _, r := range reqs { // warm: fill the cache and seed the freelist
		p.Access(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(reqs[i%len(reqs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreq/s")
}

func BenchmarkReplayHotPathLRU(b *testing.B) {
	benchReplaySteadyState(b, func(c int64) cache.Policy { return cache.NewLRU(c) })
}

func BenchmarkReplayHotPathSCIP(b *testing.B) {
	benchReplaySteadyState(b, func(c int64) cache.Policy {
		return core.NewCache(c, core.WithSeed(1), core.WithInterval(2000))
	})
}

// BenchmarkReplayWholeTrace measures full-trace replay throughput through
// sim.Run — the unit of work the parallel experiment engine schedules.
func BenchmarkReplayWholeTrace(b *testing.B) {
	tr, err := scip.GenerateProfile(scip.CDNT, 0.001, 3)
	if err != nil {
		b.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cache.NewLRU(capBytes)
		res := sim.Run(tr, c, sim.Options{WarmupFrac: 0.2})
		b.ReportMetric(res.MissRatio(), "missRatio")
	}
	b.ReportMetric(float64(b.N)*float64(len(tr.Requests))/b.Elapsed().Seconds()/1e6, "Mreq/s")
}

// BenchmarkParallelEngineFig8 regenerates Figure 8 through the worker
// pool (Workers=0 → GOMAXPROCS) versus the serial path, at benchmark
// scale. On multi-core machines the parallel variant shows the engine's
// speedup; output is byte-identical either way.
func BenchmarkParallelEngineFig8(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			r, ok := exp.Lookup("fig8")
			if !ok {
				b.Fatal("fig8 not registered")
			}
			cfg := benchCfg()
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ML kernel benchmarks: the gradient-boosting fit, tree inference and
// the trained-LRB access path that dominate the ML-heavy figures (fig4,
// fig10, fig12). The data dimensions mirror LRB's steady-state retrain:
// MaxTrain=8192 rows of NumFeatures log-scaled features, squared loss,
// 30 trees of depth 4.

// kernelBenchData builds the synthetic LRB-shaped training set shared by
// the kernel benchmarks.
func kernelBenchData() (*ml.Matrix, []float64) {
	rng := rand.New(rand.NewSource(42))
	const n = 8192
	X := &ml.Matrix{}
	y := make([]float64, n)
	row := make([]float64, lrb.NumFeatures)
	for i := range y {
		for j := range row {
			row[j] = rng.Float64() * 16 // log2-scaled feature range
		}
		X.AppendRow(row)
		y[i] = rng.Float64() * 34 // log2(distance+1) targets
	}
	return X, y
}

// lrbRetrainGBM mirrors the hyperparameters of LRB's periodic retrain.
func lrbRetrainGBM() *ml.GBM {
	return &ml.GBM{Squared: true, Trees: 30, Depth: 4, LR: 0.2, MinLeaf: 16}
}

func BenchmarkGBMFit(b *testing.B) {
	X, y := kernelBenchData()
	m := lrbRetrainGBM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.FitRegression(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreePredict(b *testing.B) {
	X, y := kernelBenchData()
	t := &ml.RegressionTree{MaxDepth: 4, MinLeaf: 16}
	t.Fit(X, y)
	rows := X.Rows()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += t.Predict(X.Row(i % rows))
	}
	_ = sink
}

// BenchmarkLRBAccessTrained measures the per-request cost of a warmed,
// trained LRB — feature extraction, sampling, labelling, periodic GBM
// retrains and sampled eviction all included, exactly the path the fig12
// grid replays.
func BenchmarkLRBAccessTrained(b *testing.B) {
	tr, err := scip.GenerateProfile(scip.CDNT, 0.001, 3)
	if err != nil {
		b.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.001)
	l := lrb.New(capBytes, lrb.WithSeed(1))
	reqs := tr.Requests
	for _, r := range reqs { // warm: fill, label and train
		l.Access(r)
	}
	if !l.Trained() {
		b.Fatal("LRB did not train during warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Access(reqs[i%len(reqs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreq/s")
}

// BenchmarkShardedAccessStats measures the cost of the per-access stats
// instrumentation on the sharded front: the same parallel access pattern
// bare and with the lock-free counters attached (the access path itself
// is clock-free since the counters-only ObserveAccess).
func BenchmarkShardedAccessStats(b *testing.B) {
	for _, variant := range []string{"bare", "counters"} {
		b.Run(variant, func(b *testing.B) {
			c, err := shard.New("scip", 1<<24, 16, func(capBytes int64, s int) cache.Policy {
				return core.NewCache(capBytes, core.WithSeed(int64(s)+1), core.WithInterval(2000))
			})
			if err != nil {
				b.Fatal(err)
			}
			if variant == "counters" {
				c.EnableStats()
			}
			var ctr atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					c.Access(cache.Request{Time: int64(i), Key: i % 4096, Size: 512})
				}
			})
		})
	}
}

// BenchmarkShardedAccessModes compares the three concurrency
// configurations of DESIGN.md §10 on one parallel access pattern:
// per-request mutex locking, mutex locking amortised over 64-request
// same-shard batches, and the goroutine-per-shard actor path fed the
// same batches. Decisions and counters are identical in all three
// (TestModeInvariance); only the synchronisation cost differs.
func BenchmarkShardedAccessModes(b *testing.B) {
	const batch = 64
	for _, m := range []struct {
		name  string
		mode  shard.Mode
		batch int
	}{
		{"mutex", shard.ModeMutex, 1},
		{"batched", shard.ModeMutex, batch},
		{"actor", shard.ModeActor, batch},
	} {
		b.Run(m.name, func(b *testing.B) {
			c, err := shard.New("scip", 1<<24, 16, func(capBytes int64, s int) cache.Policy {
				return core.NewCache(capBytes, core.WithSeed(int64(s)+1), core.WithInterval(2000))
			}, shard.WithMode(m.mode))
			if err != nil {
				b.Fatal(err)
			}
			c.EnableStats()
			defer c.Close()
			var ctr atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				if m.batch <= 1 {
					for pb.Next() {
						i := ctr.Add(1)
						c.Access(cache.Request{Time: int64(i), Key: i % 4096, Size: 512})
					}
					return
				}
				// One pending batch per shard, as the replay drivers do.
				bufs := make([][]cache.Request, c.Shards())
				for pb.Next() {
					i := ctr.Add(1)
					req := cache.Request{Time: int64(i), Key: i % 4096, Size: 512}
					s := c.ShardIndex(req.Key)
					bufs[s] = append(bufs[s], req)
					if len(bufs[s]) == m.batch {
						c.AccessBatch(s, bufs[s], nil)
						bufs[s] = bufs[s][:0]
					}
				}
				for s, buf := range bufs {
					if len(buf) > 0 {
						c.AccessBatch(s, buf, nil)
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mreq/s")
		})
	}
}

// BenchmarkStatsSnapshot measures the lock-free Snapshot read path while
// counters are hot (the interval reporter's and /metrics' cost while
// serving).
func BenchmarkStatsSnapshot(b *testing.B) {
	st := stats.New(64)
	for i := 0; i < 64; i++ {
		st.ObserveAccess(i, 512, i%2 == 0, 1<<20, int64(i))
		st.Latency().Observe(time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := st.Snapshot()
		_ = snap.MissRatio()
		_ = snap.OccupancySkew()
		_ = snap.LatencyQuantile(0.99)
	}
}
