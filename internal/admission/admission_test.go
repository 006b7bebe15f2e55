package admission

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
)

func req(t int64, key uint64, size int64) cache.Request {
	return cache.Request{Time: t, Key: key, Size: size}
}

func builders(capBytes int64) map[string]func() cache.Policy {
	return map[string]func() cache.Policy{
		"2Q":        func() cache.Policy { return NewTwoQ(capBytes) },
		"TinyLFU":   func() cache.Policy { return NewTinyLFU(capBytes) },
		"AdaptSize": func() cache.Policy { return NewAdaptSize(capBytes, 1) },
	}
}

func TestAllAdmissionPoliciesInvariants(t *testing.T) {
	capBytes := int64(300_000)
	tr, err := gen.Generate(gen.Config{
		Name: "a", Seed: 5,
		Requests:    60_000,
		CatalogSize: 1000,
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
	for name, build := range builders(capBytes) {
		p := build()
		hits := 0
		for i, r := range tr.Requests {
			if p.Access(r) {
				hits++
			}
			if p.Used() > p.Capacity() {
				t.Fatalf("%s: capacity exceeded at %d", name, i)
			}
		}
		if hits == 0 {
			t.Errorf("%s: no hits", name)
		}
		// Oversized bypass.
		p2 := build()
		if p2.Access(req(0, 9, capBytes+1)) {
			t.Errorf("%s: oversized hit", name)
		}
	}
}

func TestTwoQProbationAndPromotion(t *testing.T) {
	q := NewTwoQ(10_000)
	q.Access(req(0, 1, 100))
	class := func(key uint64) int32 {
		h := q.index.Get(key)
		if h == cache.None {
			t.Fatalf("key %d not resident", key)
		}
		return q.arena.At(h).Class
	}
	if class(1) != twoQA1in {
		t.Fatal("new object should enter A1in")
	}
	// A hit while in probation must NOT promote (2Q's correlated-
	// reference rule).
	q.Access(req(1, 1, 100))
	if class(1) != twoQA1in {
		t.Fatal("probation hit must not promote")
	}
	// Push object 1 out of probation into the ghost, then re-reference.
	for k := uint64(2); k < 40; k++ {
		q.Access(req(int64(k), k, 100))
	}
	if q.index.Get(1) != cache.None {
		t.Fatal("object 1 should have left probation")
	}
	q.Access(req(100, 1, 100))
	if class(1) != twoQAm {
		t.Fatal("ghost re-reference should admit to Am")
	}
}

// TestTwoQGhostBudget: A1out remembers probation victims up to exactly
// half the capacity. Cycling 300 distinct 100-byte objects through a
// 10 000-byte 2Q spills 275 of them out of the 2 500-byte A1in; the ghost
// keeps the newest 50 and drops the rest from its old end.
func TestTwoQGhostBudget(t *testing.T) {
	q := NewTwoQ(10_000)
	for k := uint64(1); k <= 300; k++ {
		q.Access(req(int64(k), k, 100))
	}
	if got := q.a1out.Bytes(); got != 5_000 {
		t.Fatalf("ghost holds %d bytes, want the 5000-byte budget", got)
	}
	if !q.a1out.Contains(275) || q.a1out.Contains(225) {
		t.Fatal("ghost must keep the newest 50 probation victims (226..275)")
	}
}

func TestSketchCountsAndAges(t *testing.T) {
	s := newSketch(1024)
	for i := 0; i < 10; i++ {
		s.Add(42)
	}
	if s.Estimate(42) < 5 {
		t.Fatalf("estimate = %d, want >= 5", s.Estimate(42))
	}
	if s.Estimate(43) > 2 {
		t.Fatalf("cold key estimate = %d", s.Estimate(43))
	}
	// Aging halves counters.
	before := s.Estimate(42)
	for i := 0; i < s.window; i++ {
		s.Add(uint64(1000 + i))
	}
	if s.Estimate(42) >= before {
		t.Fatal("aging did not decay the hot key's counter")
	}
}

func TestTinyLFUAdmissionDuel(t *testing.T) {
	tl := NewTinyLFU(100_000)
	// Warm a popular object into main.
	for i := 0; i < 20; i++ {
		tl.Access(req(int64(i), 1, 30_000))
	}
	// Flood with one-hit objects: they must not displace the popular one.
	for k := uint64(100); k < 200; k++ {
		tl.Access(req(int64(k), k, 30_000))
	}
	if !tl.Access(req(999, 1, 30_000)) {
		t.Fatal("popular object displaced by one-hit flood")
	}
}

func TestAdaptSizeFiltersLarge(t *testing.T) {
	a := NewAdaptSize(1_000_000, 2)
	a.c = 1000 // small c: large objects are almost never admitted
	admitted := 0
	for k := uint64(0); k < 200; k++ {
		a.Access(req(int64(k), k, 100_000))
		if a.inner.Contains(k) {
			admitted++
		}
	}
	if admitted > 5 {
		t.Fatalf("large objects admitted %d/200 with tiny c", admitted)
	}
	small := 0
	for k := uint64(1000); k < 1200; k++ {
		a.Access(req(int64(k), k, 10))
		if a.inner.Contains(k) {
			small++
		}
	}
	if small < 190 {
		t.Fatalf("small objects admitted only %d/200", small)
	}
}

func TestAdaptSizeTunes(t *testing.T) {
	a := NewAdaptSize(1_000_000, 3)
	a.Interval = 2000
	c0 := a.C()
	tr, err := gen.Generate(gen.CDNT.Config(0.0005, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Requests {
		a.Access(r)
	}
	if a.C() == c0 {
		t.Fatal("c never adapted")
	}
	if a.C() < 1024 || a.C() > float64(a.Capacity()) {
		t.Fatalf("c out of bounds: %g", a.C())
	}
}
