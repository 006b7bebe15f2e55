package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/scip-cache/scip/internal/cache"
)

func TestSizeClassBuckets(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{1, 0}, {31, 0}, {32, 1}, {63, 1}, {64, 2},
		{1 << 10, 6}, {1 << 20, 16 - 1 /* clamped */},
	}
	for _, c := range cases {
		if got := sizeClass(c.size); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// Monotone non-decreasing in size.
	prev := 0
	for s := int64(1); s < 1<<30; s *= 2 {
		c := sizeClass(s)
		if c < prev {
			t.Fatalf("sizeClass not monotone at %d", s)
		}
		prev = c
	}
}

func TestWeightSetFallbackUntilObserved(t *testing.T) {
	ws := newWeightSet(0.9)
	size := int64(1 << 12)
	if ws.pick(size) != ws.global {
		t.Fatal("unseen class should fall back to global pair")
	}
	for i := 0; i < classMinObs; i++ {
		ws.decay(size, 0, 0.1)
	}
	if ws.pick(size) == ws.global {
		t.Fatal("observed class should use its own pair")
	}
	// Other classes still fall back.
	if ws.pick(1<<24) != ws.global {
		t.Fatal("unrelated class should still fall back")
	}
}

func TestWeightSetDecayUpdatesGlobalToo(t *testing.T) {
	ws := newWeightSet(0.9)
	g0 := ws.global.Weight(0)
	ws.decay(1<<12, 0, 0.5)
	if ws.global.Weight(0) >= g0 {
		t.Fatal("global prior did not receive evidence")
	}
}

func TestWeightSetDecayClamped(t *testing.T) {
	ws := newWeightSet(0.5)
	ws.decay(1<<12, 0, 100) // absurd λ must be clamped
	w := ws.class[sizeClass(1<<12)].Weight(0)
	if w < math.Exp(-3)/(math.Exp(-3)+0.5)-0.05 {
		t.Fatalf("decay not clamped: w=%g", w)
	}
}

func TestSizeFactorEconomics(t *testing.T) {
	s := New(1 << 20)
	if s.sizeFactor(1<<20) != 1 {
		t.Fatal("no hit history: factor must be neutral")
	}
	// Record a typical hit size of ~1 KiB.
	s.OnAccess(cache.Request{Key: 1, Size: 1 << 10}, true)
	if f := s.sizeFactor(1 << 10); math.Abs(f-1) > 0.01 {
		t.Fatalf("factor at mean = %g, want ~1", f)
	}
	if f := s.sizeFactor(1 << 20); f != 64 {
		t.Fatalf("big-object factor = %g, want cap 64", f)
	}
	if f := s.sizeFactor(1); f != 0.25 {
		t.Fatalf("tiny-object factor = %g, want floor 0.25", f)
	}
}

func TestContextRouting(t *testing.T) {
	s := New(1 << 20)
	if s.context(cache.ResInserted) != s.insW {
		t.Fatal("insertion residency should train insW")
	}
	if s.context(cache.ResFirstHit) != s.proW {
		t.Fatal("first-hit residency should train proW")
	}
	if s.context(cache.ResRepeat) != nil {
		t.Fatal("repeat residency carries no decision")
	}
	sci := NewSCI(1 << 20)
	if sci.context(cache.ResFirstHit) != sci.insW {
		t.Fatal("SCI has no promotion decisions; evidence goes to insW")
	}
}

func TestUnifiedModelSharesWeights(t *testing.T) {
	s := New(1<<20, WithUnifiedModel(), WithSeed(3))
	if s.insW != s.proW {
		t.Fatal("unified model should share one weight set")
	}
	// Evidence through the promotion context must move the shared pair.
	w0 := s.MRUWeight()
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 1 << 10, InsertedMRU: true, Residency: cache.ResFirstHit})
	s.OnAccess(cache.Request{Key: 1, Size: 1 << 10}, false) // ghost hit in H_m
	if s.MRUWeight() >= w0 {
		t.Fatal("shared pair did not receive promotion-context evidence")
	}
}

func TestRepeatHitsPinnedToMRU(t *testing.T) {
	s := New(1<<20, WithSeed(5), WithInitialMRUWeight(0.01))
	// Simulate the observer being told this is a repeat residency.
	s.OnResidentHit(cache.Request{Key: 1, Size: 10}, true, cache.ResFirstHit, 1)
	if s.ChoosePromote(cache.Request{Key: 1, Size: 10}) != cache.MRU {
		t.Fatal("repeat hit must be pinned to MRU regardless of weights")
	}
}

func TestFirstHitGambleUsesPromoteWeights(t *testing.T) {
	s := New(1<<20, WithSeed(5), WithInitialMRUWeight(0.01))
	s.OnResidentHit(cache.Request{Key: 1, Size: 10}, true, cache.ResInserted, 1)
	lru := 0
	for i := 0; i < 100; i++ {
		s.pendingRepeatHit = false // re-arm the first-hit context
		if s.ChoosePromote(cache.Request{Key: 1, Size: 10}) == cache.LRU {
			lru++
		}
	}
	if lru < 80 {
		t.Fatalf("ω_m=0.01 should demote most first hits, got %d/100", lru)
	}
}

func TestForEnhancementPreset(t *testing.T) {
	s := New(1<<20, ForEnhancement())
	if s.duelists != nil {
		t.Fatal("enhancement preset must disable dueling")
	}
	if s.evictGain != 0 {
		t.Fatal("enhancement preset must disable insertion waste evidence")
	}
	w0 := s.MRUWeight()
	if w0 < 0.95 {
		t.Fatalf("enhancement preset initial ω_m = %g, want near 1", w0)
	}
	// Waste evidence on insertion residencies must be inert.
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 1 << 12, InsertedMRU: true, Residency: cache.ResInserted})
	if s.MRUWeight() != w0 {
		t.Fatal("insertion waste evidence leaked through the preset")
	}
}

func TestEvictGainRoutesToPromotionContext(t *testing.T) {
	s := New(1<<20, WithSeed(2))
	p0 := s.PromoteMRUWeight()
	// Set a hit-size baseline so sizeFactor is defined.
	s.OnAccess(cache.Request{Key: 9, Size: 1 << 12}, true)
	s.OnEvict(cache.EvictInfo{Key: 1, Size: 1 << 12, InsertedMRU: true, Residency: cache.ResFirstHit})
	if s.PromoteMRUWeight() >= p0 {
		t.Fatal("wasted promotion did not decay promotion context")
	}
}

func TestDuelingDriftsWeights(t *testing.T) {
	s := New(1<<14, WithSeed(4), WithInterval(800), WithDueling(2.0))
	// Recency-friendly traffic: the MRU monitor wins, ω_m should rise
	// above its starting point despite contrary per-object noise.
	w0 := s.MRUWeight()
	for i := 0; i < 20_000; i++ {
		req := cache.Request{Time: int64(i), Key: uint64(i % 50), Size: 64}
		s.OnAccess(req, i >= 50)
	}
	if s.MRUWeight() < w0-0.1 {
		t.Fatalf("dueling let ω_m collapse on recency traffic: %g -> %g", w0, s.MRUWeight())
	}
}

func TestLambdaStaysInBounds(t *testing.T) {
	f := func(hits []uint8) bool {
		s := New(1<<16, WithSeed(9), WithInterval(10))
		for i, h := range hits {
			s.OnAccess(cache.Request{Time: int64(i), Key: uint64(i), Size: 1}, h%2 == 0)
			l := s.Lambda()
			if l < 0.05-1e-9 || l > 1+1e-9 || math.IsNaN(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryRecordsResidency(t *testing.T) {
	s := New(1 << 20)
	s.OnEvict(cache.EvictInfo{Key: 7, Size: 100, InsertedMRU: false, Residency: cache.ResFirstHit})
	// The H_l record must carry the residency so the rescue trains proW.
	p0 := s.PromoteMRUWeight()
	s.OnAccess(cache.Request{Key: 7, Size: 100}, false)
	if s.PromoteMRUWeight() <= p0 {
		t.Fatal("H_l rescue of a demoted first-hit did not protect proW")
	}
}
