package core

import (
	"math"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/sim"
)

// initialMRUWeight starts both contexts' ω_m at w instead of the 0.9
// default, so a test can pin the selector to one arm.
func initialMRUWeight(w float64) Option {
	return func(s *SCIP) { s.initW = w }
}

func req(t int64, key uint64, size int64) cache.Request {
	return cache.Request{Time: t, Key: key, Size: size}
}

func TestNewDefaults(t *testing.T) {
	s := New(1000)
	if s.Name() != "SCIP" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.MRUWeight() != 0.9 {
		t.Fatalf("initial ω_m = %g, want 0.9", s.MRUWeight())
	}
	if s.Lambda() != 0.3 {
		t.Fatalf("initial λ = %g, want 0.3", s.Lambda())
	}
	if s.hm.Bytes() != 0 || s.hl.Bytes() != 0 {
		t.Fatal("history lists not empty initially")
	}
}

func TestHistoryFractionSizesLists(t *testing.T) {
	s := New(1000, WithHistoryFraction(0.5))
	// Fill H_m beyond half the cache size; it must cap at 500 bytes.
	for k := uint64(0); k < 20; k++ {
		s.OnEvict(cache.EvictInfo{Key: k, Size: 100, InsertedMRU: true, EverHit: false})
	}
	if hm := s.hm.Bytes(); hm > 500 {
		t.Fatalf("H_m bytes = %d, want <= 500", hm)
	}
}

func TestEvictRouting(t *testing.T) {
	s := New(10000)
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 100, InsertedMRU: true, EverHit: false})
	s.OnEvict(cache.EvictInfo{Key: 2, Size: 100, InsertedMRU: false, EverHit: true})
	if hm, hl := s.hm.Bytes(), s.hl.Bytes(); hm != 100 || hl != 100 {
		t.Fatalf("history sizes = %d,%d, want 100,100", hm, hl)
	}
}

func TestMissInHmDecaysOmegaM(t *testing.T) {
	s := New(10000, WithSeed(7))
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 100, InsertedMRU: true, EverHit: false}) // 1 entered at MRU, got evicted
	w0 := s.MRUWeight()
	s.OnAccess(req(1, 1, 100), false) // misses again
	if s.MRUWeight() >= w0 {
		t.Fatalf("ω_m did not decay: %g -> %g", w0, s.MRUWeight())
	}
	// The record must be consumed (DELETE in Algorithm 1).
	w1 := s.MRUWeight()
	s.OnAccess(req(2, 1, 100), false)
	if s.MRUWeight() != w1 {
		t.Fatal("second miss on same key decayed ω_m again")
	}
}

func TestMissInHlDecaysOmegaL(t *testing.T) {
	s := New(10000, WithSeed(7))
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 100, InsertedMRU: false, EverHit: false})
	w0 := s.MRUWeight()
	s.OnAccess(req(1, 1, 100), false)
	if s.MRUWeight() <= w0 {
		t.Fatalf("ω_m did not grow after H_l hit: %g -> %g", w0, s.MRUWeight())
	}
}

func TestHitDoesNotTouchHistoryWeights(t *testing.T) {
	s := New(10000, WithSeed(7))
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 100, InsertedMRU: true, EverHit: false})
	w0 := s.MRUWeight()
	s.OnAccess(req(1, 1, 100), true) // hits in cache: no history lookup
	if s.MRUWeight() != w0 {
		t.Fatal("hit access modified weights")
	}
}

func TestWeightsStayNormalised(t *testing.T) {
	s := New(100000, WithSeed(3))
	for i := uint64(0); i < 5000; i++ {
		s.OnEvict(cache.EvictInfo{Key: i, Size: 10, InsertedMRU: i%2 == 0})
		s.OnAccess(req(int64(i), i, 10), false)
		wm := s.MRUWeight()
		if wm < 0 || wm > 1 || math.IsNaN(wm) {
			t.Fatalf("ω_m out of range: %g", wm)
		}
	}
}

func TestLearningRateUpdatesAtInterval(t *testing.T) {
	s := New(10000, WithSeed(1), WithInterval(10))
	l0 := s.Lambda()
	// Interval 1 establishes the baseline; interval 2 with a different
	// hit rate triggers a gradient step.
	for i := 0; i < 10; i++ {
		s.OnAccess(req(int64(i), uint64(i), 1), false)
	}
	for i := 0; i < 10; i++ {
		s.OnAccess(req(int64(10+i), uint64(i), 1), true)
	}
	if s.Lambda() == l0 {
		t.Fatalf("λ unchanged after improving interval: %g", s.Lambda())
	}
	if s.Lambda() < 0.001 || s.Lambda() > 1 {
		t.Fatalf("λ out of paper bounds: %g", s.Lambda())
	}
}

func TestSelectRespectsWeights(t *testing.T) {
	s := New(10000, WithSeed(42), initialMRUWeight(1))
	for i := 0; i < 100; i++ {
		if s.ChooseInsert(req(0, 1, 1)) != cache.MRU {
			t.Fatal("ω_m=1 must always insert MRU")
		}
	}
	s2 := New(10000, WithSeed(42), initialMRUWeight(0))
	for i := 0; i < 100; i++ {
		if s2.ChooseInsert(req(0, 1, 1)) != cache.LRU {
			t.Fatal("ω_m=0 must always insert LRU")
		}
	}
}

func TestSCIPromotesMRUAlways(t *testing.T) {
	s := NewSCI(10000, WithSeed(5), initialMRUWeight(0))
	if s.Name() != "SCI" {
		t.Fatalf("Name = %q, want SCI", s.Name())
	}
	for i := 0; i < 50; i++ {
		if s.ChoosePromote(req(0, 1, 1)) != cache.MRU {
			t.Fatal("SCI must always promote to MRU")
		}
	}
	// Insertion still follows the learned weights.
	if s.ChooseInsert(req(0, 1, 1)) != cache.LRU {
		t.Fatal("SCI insertion should follow ω (ω_m=0 → LRU)")
	}
}

func TestNewCacheIntegration(t *testing.T) {
	c := NewCache(300, WithSeed(2))
	if c.Name() != "SCIP" {
		t.Fatalf("cache name = %q", c.Name())
	}
	// Drive enough traffic that insertions, promotions and evictions all
	// happen; capacity invariant must hold throughout.
	for i := 0; i < 5000; i++ {
		k := uint64(i % 17)
		c.Access(req(int64(i), k, 50))
		if c.Used() > c.Capacity() {
			t.Fatalf("capacity exceeded at %d", i)
		}
	}
}

// TestSCIPBeatsLRUOnZROHeavyWorkload is the core behavioural check: on a
// workload dominated by one-hit wonders (ZROs) with a hot set several
// times the cache size, SCIP must achieve a lower miss ratio than plain
// LRU because it learns to keep ZROs away from the MRU position instead of
// letting them flush the reusable working set.
func TestSCIPBeatsLRUOnZROHeavyWorkload(t *testing.T) {
	cfg := gen.Config{
		Name: "zro-heavy", Seed: 11,
		Requests:    300_000,
		CatalogSize: 3000,
		ZipfAlpha:   0.8,
		OneHitFrac:  0.4,
		EchoProb:    0.2, EchoDelay: 100, EchoTailFrac: 0.6,
		EpochRequests: 100_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	}
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capBytes := int64(700_000)
	opts := sim.Options{WarmupFrac: 0.2}
	lru := sim.Run(tr, cache.NewLRU(capBytes), opts)
	scip := sim.Run(tr, NewCache(capBytes, WithSeed(4), WithInterval(5000)), opts)
	if scip.MissRatio() >= lru.MissRatio() {
		t.Fatalf("SCIP miss %.4f >= LRU miss %.4f on ZRO-heavy workload",
			scip.MissRatio(), lru.MissRatio())
	}
}

// TestSCIPAndSCIOnEchoWorkload checks the promotion half on a CDN-W-like
// workload (quick re-access echoes producing P-ZROs): SCIP must stay
// within noise of SCI and neither may collapse against LRU.
func TestSCIPAndSCIOnEchoWorkload(t *testing.T) {
	tr, err := gen.Generate(gen.CDNW.Config(0.002, 13))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNW.CacheBytes(64<<30, 0.002)
	opts := sim.Options{WarmupFrac: 0.2}
	lru := sim.Run(tr, cache.NewLRU(capBytes), opts)
	scip := sim.Run(tr, NewCache(capBytes, WithSeed(4), WithInterval(5000)), opts)
	sci := sim.Run(tr, NewSCICache(capBytes, WithSeed(4), WithInterval(5000)), opts)
	if scip.MissRatio() > lru.MissRatio()+0.02 {
		t.Fatalf("SCIP %.4f collapsed against LRU %.4f", scip.MissRatio(), lru.MissRatio())
	}
	if sci.MissRatio() > lru.MissRatio()+0.02 {
		t.Fatalf("SCI %.4f collapsed against LRU %.4f", sci.MissRatio(), lru.MissRatio())
	}
	if scip.MissRatio() > sci.MissRatio()+0.01 {
		t.Fatalf("SCIP %.4f materially worse than SCI %.4f on P-ZRO workload",
			scip.MissRatio(), sci.MissRatio())
	}
}

func TestOptionValidation(t *testing.T) {
	s := New(1000, WithInterval(0)) // ignored: keeps default
	if s.interval != DefaultInterval {
		t.Fatalf("interval = %d, want default", s.interval)
	}
}
