package scorer

import (
	"testing"

	"github.com/scip-cache/scip/internal/admission"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

func testTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Config{
		Name: "scorer-test", Seed: seed,
		Requests:    40_000,
		CatalogSize: 2_000,
		ZipfAlpha:   0.9,
		OneHitFrac:  0.3,
		EchoProb:    0.2, EchoDelay: 60, EchoTailFrac: 0.5,
		EpochRequests: 20_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestZROOnlyMatchesMonolith is the tentpole's core invariant at unit
// scale: a placement-mode pipeline with only the zro scorer reproduces
// the monolithic SCIP cache's decision stream request-for-request —
// same hits, same occupancy, same eviction count.
func TestZROOnlyMatchesMonolith(t *testing.T) {
	tr := testTrace(t, 11)
	const capBytes = 300_000
	const seed, interval = 7, 5_000

	mono := core.NewCache(capBytes, core.WithSeed(seed), core.WithInterval(interval))
	pipe := mustSpec(t, "scorer:zro=1,name=SCIP").New(capBytes, seed, interval).(*cache.QueueCache)
	for i, req := range tr.Requests {
		mh := mono.Access(req)
		ph := pipe.Access(req)
		if mh != ph {
			t.Fatalf("request %d: monolith hit=%v, pipeline hit=%v", i, mh, ph)
		}
	}
	if mono.Used() != pipe.Used() {
		t.Fatalf("Used: monolith %d, pipeline %d", mono.Used(), pipe.Used())
	}
	if mono.Evictions() != pipe.Evictions() {
		t.Fatalf("Evictions: monolith %d, pipeline %d", mono.Evictions(), pipe.Evictions())
	}
}

// TestFilterMatchesFrozenAdaptSize: a filter-mode pipeline with only the
// size scorer and probabilistic admission reproduces a tuning-frozen
// AdaptSize request-for-request. The pipeline seed is offset by 1009 to
// match AdaptSize's internal PRNG derivation.
func TestFilterMatchesFrozenAdaptSize(t *testing.T) {
	tr := testTrace(t, 12)
	const capBytes = 300_000
	const seed = 4

	ads := admission.NewAdaptSize(capBytes, seed)
	ads.Interval = 1 << 30 // freeze: c never tunes within the test horizon
	// c=3000 is capBytes/100, AdaptSize's starting point.
	filt := mustSpec(t, "scorer:size=1,mode=filter,c=3000,name=AdaptSize").New(capBytes, seed+1009, 0)
	for i, req := range tr.Requests {
		ah := ads.Access(req)
		fh := filt.Access(req)
		if ah != fh {
			t.Fatalf("request %d: AdaptSize hit=%v, filter hit=%v", i, ah, fh)
		}
	}
	if ads.Used() != filt.Used() {
		t.Fatalf("Used: AdaptSize %d, filter %d", ads.Used(), filt.Used())
	}
}

// TestFilterModeBasics: deterministic theta admits small objects and
// rejects large ones under a size-only mix.
func TestFilterModeBasics(t *testing.T) {
	f := mustSpec(t, "scorer:size=1,mode=filter,theta=0.5,c=1000").New(1_000_000, 1, 0).(*FilterCache)
	f.Access(cache.Request{Time: 0, Key: 1, Size: 100})    // e^{-0.1} ≈ 0.90 ≥ θ
	f.Access(cache.Request{Time: 1, Key: 2, Size: 10_000}) // e^{-10} ≈ 0  < θ
	if !f.Access(cache.Request{Time: 2, Key: 1, Size: 100}) {
		t.Fatal("small object should have been admitted")
	}
	if f.Access(cache.Request{Time: 3, Key: 2, Size: 10_000}) {
		t.Fatal("large object should have been rejected")
	}
	if !f.Remove(1) {
		t.Fatal("Remove of resident key reported false")
	}
	if f.Access(cache.Request{Time: 4, Key: 1, Size: 100}) {
		t.Fatal("removed key still hits")
	}
}

// TestTuningMovesWeights: with tuning on and a workload where small
// objects reuse and large ones never do, the mixer must move mass
// between scorers while staying on the simplex.
func TestTuningMovesWeights(t *testing.T) {
	p, err := NewPipeline(100_000, Config{
		Size: 1, Freq: 1, Seed: 1, Interval: 1_000, Tune: true, C: 1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	qc := cache.NewQueueCache("mix", 100_000, p)
	// Small hot set + large one-hit wonders: reuse evidence favours the
	// size scorer.
	for i := 0; i < 30_000; i++ {
		if i%3 == 0 {
			qc.Access(cache.Request{Time: int64(i), Key: uint64(i), Size: 20_000})
		} else {
			qc.Access(cache.Request{Time: int64(i), Key: uint64(i % 8), Size: 500})
		}
	}
	w := p.Weights()
	if len(w) != 2 {
		t.Fatalf("want 2 weights, got %v", w)
	}
	sum := w[0] + w[1]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("weights off the simplex: %v", w)
	}
	if w[0] == 0.5 && w[1] == 0.5 {
		t.Fatal("tuning never moved the weights")
	}
}

func mustSpec(t *testing.T, spec string) Spec {
	t.Helper()
	sp, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecParsing(t *testing.T) {
	if !IsSpec("SCORER:zro=1") || !IsSpec("scorer:size") || IsSpec("SCIP") {
		t.Fatal("IsSpec prefix detection wrong")
	}
	sp := mustSpec(t, "scorer:zro=1,size=0.5,mode=filter,theta=0.8,tune=off,interval=9000,name=X")
	if c := sp.cfg; c.ZRO != 1 || c.Size != 0.5 || !sp.filter || sp.theta != 0.8 || c.Tune || c.Interval != 9000 || c.Name != "X" {
		t.Fatalf("parsed %+v", sp)
	}
	// Bare scorer name means weight 1; defaults: placement, θ=-1, tune on.
	sp = mustSpec(t, "scorer:freq")
	if sp.cfg.Freq != 1 || sp.filter || sp.theta != -1 || !sp.cfg.Tune {
		t.Fatalf("parsed %+v", sp)
	}
	for _, bad := range []string{
		"scorer:", "scorer:bogus=1", "scorer:zro=x", "scorer:zro=1,mode=nope",
		"scorer:zro=1,tune=maybe", "SCIP",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestPipelineName: derived and overridden display names.
func TestPipelineName(t *testing.T) {
	p, err := NewPipeline(10_000, Config{Size: 1, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "MIX(size+freq)" {
		t.Fatalf("derived name = %q", p.Name())
	}
	if pol := mustSpec(t, "scorer:ghost=1,name=GhostOnly").New(10_000, 1, 0); pol.Name() != "GhostOnly" {
		t.Fatalf("overridden name = %q", pol.Name())
	}
}
