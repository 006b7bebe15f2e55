package replacement

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

func req(t int64, key uint64, size int64) cache.Request {
	return cache.Request{Time: t, Key: key, Size: size}
}

func testTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Config{
		Name: "r", Seed: seed,
		Requests:    60_000,
		CatalogSize: 1200,
		ZipfAlpha:   0.85,
		OneHitFrac:  0.3,
		EchoProb:    0.2, EchoDelay: 80, EchoTailFrac: 0.5,
		EpochRequests: 20_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func builders(capBytes int64) map[string]func() cache.Policy {
	return map[string]func() cache.Policy{
		"LRU-K":    func() cache.Policy { return NewLRUK(capBytes, 1) },
		"S4LRU":    func() cache.Policy { return NewS4LRU(capBytes) },
		"SS-LRU":   func() cache.Policy { return NewSSLRU(capBytes) },
		"GDSF":     func() cache.Policy { return NewGDSF(capBytes) },
		"LHD":      func() cache.Policy { return NewLHD(capBytes, 1) },
		"CACHEUS":  func() cache.Policy { return NewCACHEUS(capBytes, 1) },
		"GL-Cache": func() cache.Policy { return NewGLCache(capBytes) },
	}
}

func TestAllReplacementPolicies(t *testing.T) {
	capBytes := int64(300_000)
	tr := testTrace(t, 9)
	for name, build := range builders(capBytes) {
		p := build()
		hits := 0
		for i, r := range tr.Requests {
			if p.Access(r) {
				hits++
			}
			if p.Used() > p.Capacity() {
				t.Fatalf("%s: capacity exceeded at %d (%d > %d)", name, i, p.Used(), p.Capacity())
			}
		}
		ratio := float64(hits) / float64(len(tr.Requests))
		if ratio < 0.05 {
			t.Errorf("%s: hit ratio %.3f suspiciously low", name, ratio)
		}
		// Immediate re-access must hit.
		p2 := build()
		p2.Access(req(0, 42, 500))
		if !p2.Access(req(1, 42, 500)) {
			t.Errorf("%s: immediate re-access missed", name)
		}
		// Oversized objects bypass.
		p3 := build()
		if p3.Access(req(0, 7, capBytes+1)) {
			t.Errorf("%s: oversized access hit", name)
		}
		if p3.Used() != 0 {
			t.Errorf("%s: oversized object admitted", name)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore[*lrukEntry](1)
	a := &lrukEntry{key: 1, size: 10}
	b := &lrukEntry{key: 2, size: 20}
	s.Add(a)
	s.Add(b)
	if len(s.items) != 2 || s.Bytes() != 30 {
		t.Fatalf("items=%d Bytes=%d", len(s.items), s.Bytes())
	}
	if got, ok := s.Get(1); !ok || got != a {
		t.Fatal("Get(1) failed")
	}
	if _, ok := s.Remove(1); !ok {
		t.Fatal("Remove(1) failed")
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("removed key still present")
	}
	if s.Bytes() != 20 {
		t.Fatalf("Bytes=%d after removal", s.Bytes())
	}
	sample := s.Sample(5, nil)
	if len(sample) != 5 {
		t.Fatalf("Sample returned %d items", len(sample))
	}
	for _, it := range sample {
		if it != b {
			t.Fatal("sample returned foreign item")
		}
	}
	if len(s.items) != 1 {
		t.Fatalf("%d items after removal, want 1", len(s.items))
	}
}

func TestStorePanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	s := NewStore[*lrukEntry](1)
	s.Add(&lrukEntry{key: 1, size: 1})
	s.Add(&lrukEntry{key: 1, size: 1})
}

func TestLRUKPrefersShortHistoryVictims(t *testing.T) {
	l := NewLRUK(1000, 2)
	l.sampleSize = 100 // exhaustive sampling for determinism
	// Object 1 accessed twice (full history); objects 2..10 once.
	l.Access(req(0, 1, 100))
	l.Access(req(1, 1, 100))
	for k := uint64(2); k <= 10; k++ {
		l.Access(req(int64(k), k, 100))
	}
	// Cache full (10x100); next insert must evict a single-access object,
	// not object 1.
	l.Access(req(20, 99, 100))
	if _, ok := l.store.Get(1); !ok {
		t.Fatal("LRU-K evicted the only object with full history")
	}
}

func TestLRUKSCIPIntegrationDemotes(t *testing.T) {
	ins := forcedLRUIns{}
	l := NewLRUKWithInsertion(1000, 3, ins)
	if l.Name() != "LRU-K-forced" {
		t.Fatalf("name = %q", l.Name())
	}
	l.Access(req(0, 1, 100))
	e, _ := l.store.Get(1)
	if !e.demoted {
		t.Fatal("LRU-inserted object not demoted")
	}
	if l.kDistance(e) != -1 {
		t.Fatal("demoted entry should rank infinitely old")
	}
}

// forcedLRUIns always chooses the LRU position.
type forcedLRUIns struct{}

func (forcedLRUIns) Name() string                               { return "forced" }
func (forcedLRUIns) ChooseInsert(cache.Request) cache.Position  { return cache.LRU }
func (forcedLRUIns) ChoosePromote(cache.Request) cache.Position { return cache.LRU }
func (forcedLRUIns) OnEvict(cache.EvictInfo)                    {}
func (forcedLRUIns) OnAccess(cache.Request, bool)               {}

func TestS4LRUPromotionSegments(t *testing.T) {
	s := NewS4LRU(4000)
	s.Access(req(0, 1, 100))
	seg := func() int32 { return s.arena.At(s.index.Get(1)).Class }
	if seg() != 0 {
		t.Fatalf("insert segment = %d, want 0", seg())
	}
	s.Access(req(1, 1, 100))
	if seg() != 1 {
		t.Fatalf("after hit segment = %d, want 1", seg())
	}
	for i := 0; i < 5; i++ {
		s.Access(req(int64(2+i), 1, 100))
	}
	if seg() != 3 {
		t.Fatalf("segment should saturate at 3, got %d", seg())
	}
}

func TestSSLRUProtectedPromotion(t *testing.T) {
	s := NewSSLRU(4000)
	s.Access(req(0, 1, 100))
	if s.arena.At(s.index.Get(1)).Class != segProbation {
		t.Fatal("new object should enter probation")
	}
	s.Access(req(1, 1, 100))
	if s.arena.At(s.index.Get(1)).Class != segProtected {
		t.Fatal("reused object should be protected")
	}
}

func TestGDSFFavorsSmallFrequent(t *testing.T) {
	g := NewGDSF(10_000)
	// A small frequent object and large cold objects.
	for i := 0; i < 5; i++ {
		g.Access(req(int64(i), 1, 100))
	}
	for k := uint64(2); k < 10; k++ {
		g.Access(req(int64(10+k), k, 2000))
	}
	// Cache churns; the small frequent object must survive.
	if _, ok := g.index[1]; !ok {
		t.Fatal("GDSF evicted the small frequent object")
	}
	if g.l == 0 {
		t.Fatal("inflation never advanced despite evictions")
	}
}

func TestLeCaRWeightsAdapt(t *testing.T) {
	l := NewCACHEUS(1000, 4)
	w0 := l.wLRU
	// Force a ghost hit in the LRU ghost list.
	l.ghostLRU.Add(42, 100, cache.ResInserted)
	l.Access(req(0, 42, 100))
	if l.wLRU >= w0 {
		t.Fatalf("LRU weight did not decay on its ghost hit: %g -> %g", w0, l.wLRU)
	}
	w1 := l.wLRU
	l.ghostLFU.Add(43, 100, cache.ResInserted)
	l.Access(req(1, 43, 100))
	if l.wLRU <= w1 {
		t.Fatalf("LRU weight did not grow on LFU ghost hit: %g -> %g", w1, l.wLRU)
	}
}

// TestCACHEUSUsesAdaptiveRate: the regret step is the adaptive
// controller's λ. The first interval only records a baseline hit rate; an
// interval that hits less than it moves λ.
func TestCACHEUSUsesAdaptiveRate(t *testing.T) {
	c := NewCACHEUS(1000, 4)
	if c.Name() != "CACHEUS" {
		t.Fatalf("name = %q", c.Name())
	}
	l0 := c.rate.Lambda
	n := 2 * c.interval
	for i := 0; i < n; i++ {
		key := uint64(i % 4) // baseline interval: four hot keys
		if i >= c.interval {
			key = uint64(i) // next interval: every request misses
		}
		c.Access(req(int64(i), key, 100))
	}
	if c.rate.Lambda == l0 {
		t.Fatalf("λ unchanged after an interval whose hit rate fell: %g", l0)
	}
}

func TestGLCacheGroupsSealAndDrain(t *testing.T) {
	// Under 512 residents a group holds 8 objects (max(n/64, 8)), so 17
	// inserts seal two groups and leave the 17th object in the open one.
	g := NewGLCache(10_000)
	for k := uint64(1); k <= 17; k++ {
		g.Access(req(int64(k), k, 100))
	}
	sealed := 0
	for _, gr := range g.groups {
		if gr.sealed {
			sealed++
		}
	}
	if sealed != 2 {
		t.Fatalf("sealed groups = %d, want 2", sealed)
	}
	// Force evictions: groups must drain without accounting drift.
	for k := uint64(100); k < 250; k++ {
		g.Access(req(int64(k), k, 100))
		if g.Used() > g.Capacity() {
			t.Fatal("GL-Cache capacity exceeded")
		}
	}
}

func TestGLCacheTrainsModel(t *testing.T) {
	g := NewGLCache(500_000)
	g.trainEvery = 2000
	tr := testTrace(t, 12)
	for _, r := range tr.Requests[:20_000] {
		g.Access(r)
	}
	if g.model == nil {
		t.Fatal("GL-Cache never trained its utility model")
	}
}
