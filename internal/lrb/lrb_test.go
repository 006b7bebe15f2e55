package lrb

import (
	"math"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/trace"
)

func req(t int64, key uint64, size int64) cache.Request {
	return cache.Request{Time: t, Key: key, Size: size}
}

func testTrace(t *testing.T, seed int64, n int) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Config{
		Name: "l", Seed: seed,
		Requests:    n,
		CatalogSize: 1200,
		ZipfAlpha:   0.85,
		OneHitFrac:  0.3,
		EchoProb:    0.2, EchoDelay: 80, EchoTailFrac: 0.5,
		EpochRequests: n / 3, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLRBBasicBehaviour(t *testing.T) {
	l := New(1000, WithSeed(1))
	if l.Access(req(0, 1, 100)) {
		t.Fatal("cold access hit")
	}
	if !l.Access(req(1, 1, 100)) {
		t.Fatal("re-access missed")
	}
	if l.Access(req(2, 2, 2000)) {
		t.Fatal("oversized hit")
	}
	if l.Used() != 100 {
		t.Fatalf("Used=%d", l.Used())
	}
}

func TestLRBCapacityAndTraining(t *testing.T) {
	tr := testTrace(t, 7, 80_000)
	l := New(200_000, WithSeed(2), withWindow(1<<15))
	hits := 0
	for i, r := range tr.Requests {
		if l.Access(r) {
			hits++
		}
		if l.Used() > l.Capacity() {
			t.Fatalf("capacity exceeded at %d", i)
		}
	}
	if !l.Trained() {
		t.Fatal("LRB never trained a model")
	}
	if hits == 0 {
		t.Fatal("no hits")
	}
}

func TestLRBCompetitiveWithLRU(t *testing.T) {
	tr := testTrace(t, 8, 120_000)
	capBytes := int64(250_000)
	opts := sim.Options{WarmupFrac: 0.3}
	lru := sim.Run(tr, cache.NewLRU(capBytes), opts)
	lrb := sim.Run(tr, New(capBytes, WithSeed(3), withWindow(1<<15)), opts)
	// The learned policy should beat plain LRU on a drift+ZRO workload
	// once trained; allow a small tolerance for the warm-up phase.
	if lrb.MissRatio() > lru.MissRatio()+0.01 {
		t.Fatalf("LRB %.4f materially worse than LRU %.4f", lrb.MissRatio(), lru.MissRatio())
	}
}

func TestLRBWindowPrunesMetadata(t *testing.T) {
	l := New(10_000, WithSeed(4), withWindow(1000))
	// Touch many one-shot objects; their metadata must not accumulate
	// past the window sweep.
	for i := 0; i < 10_000; i++ {
		l.Access(req(int64(i), uint64(i), 20_000)) // oversized: never cached
	}
	if len(l.meta) > 2500 {
		t.Fatalf("metadata not pruned: %d entries", len(l.meta))
	}
}

func TestLRBInsertionIntegration(t *testing.T) {
	ins := demoteAll{}
	l := New(1000, WithSeed(5), WithInsertion(ins))
	if l.Name() != "LRB-demote" {
		t.Fatalf("name = %q", l.Name())
	}
	l.Access(req(0, 1, 100))
	m := l.meta[1]
	if !m.demoted {
		t.Fatal("insertion policy demotion not applied")
	}
	// Demoted entries are the first to go.
	l.Access(req(1, 2, 950))
	if m.cached {
		t.Fatal("demoted entry survived eviction pressure")
	}
}

// withWindow substitutes a shorter memory window for lrbWindow, so the
// tests reach the window prune in a short replay.
func withWindow(w int64) Option {
	return func(l *LRB) { l.window = w }
}

type demoteAll struct{}

func (demoteAll) Name() string                               { return "demote" }
func (demoteAll) ChooseInsert(cache.Request) cache.Position  { return cache.LRU }
func (demoteAll) ChoosePromote(cache.Request) cache.Position { return cache.LRU }
func (demoteAll) OnEvict(cache.EvictInfo)                    {}
func (demoteAll) OnAccess(cache.Request, bool)               {}

func TestLRBAccessAllocsSteadyState(t *testing.T) {
	// Once warm — metadata map populated, pending arena and training
	// matrix at their high-water marks, first model fit — the sampled
	// access path (feature extraction, sample labelling, periodic GBM
	// retrains, window pruning, sampled eviction) must stay off the heap.
	// The warm-up is long enough that trainX has hit maxTrain and been
	// halved at least once, so no backing array grows afterwards.
	//
	// The 20 000 accesses are one AllocsPerRun run: AllocsPerRun
	// integer-divides mallocs by runs, so a per-access run would read 0
	// unless every access allocated, and the periodic paths would never
	// count.
	tr := testTrace(t, 12, 120_000)
	l := New(100_000, WithSeed(13), withWindow(1<<12))
	for _, r := range tr.Requests {
		l.Access(r)
	}
	if !l.Trained() {
		t.Fatal("LRB did not train during warm-up")
	}
	reqs := tr.Requests
	i := 0
	if a := testing.AllocsPerRun(1, func() {
		for range 20_000 {
			l.Access(reqs[i%len(reqs)])
			i++
		}
	}); a != 0 {
		t.Fatalf("20 000 steady-state accesses allocate %.0f times, want 0", a)
	}
}

func TestLRBDeterministic(t *testing.T) {
	// The small window forces many pruneWindow sweeps: window-expired
	// samples must be labelled in sampling order, not in the map's
	// randomised iteration order. maxTrain 1024 makes the halving trim
	// fire during the run, so label order decides which samples survive
	// into every later fit; the run is fingerprinted by the training set
	// it ends with as well as by its hit stream.
	tr := testTrace(t, 9, 60_000)
	run := func() (hits, train uint64, trained bool) {
		l := New(100_000, WithSeed(6), withWindow(1<<12))
		l.maxTrain, l.trainEvery = 1024, 512
		for i, r := range tr.Requests {
			if l.Access(r) {
				hits = hits*31 + uint64(i)
			}
		}
		for _, vs := range [][]float64{l.trainX.Data, l.trainY} {
			for _, v := range vs {
				train = train*1099511628211 ^ math.Float64bits(v)
			}
		}
		return hits, train, l.Trained()
	}
	hits0, train0, trained := run()
	if !trained {
		t.Fatal("model never trained; test exercises nothing")
	}
	for i := 0; i < 3; i++ {
		hits, train, _ := run()
		if hits != hits0 {
			t.Fatal("LRB hit stream not deterministic for fixed seed")
		}
		if train != train0 {
			t.Fatal("LRB training set not deterministic for fixed seed")
		}
	}
}
