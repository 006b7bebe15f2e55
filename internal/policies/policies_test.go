package policies

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
)

func req(t int64, key uint64, size int64) cache.Request {
	return cache.Request{Time: t, Key: key, Size: size}
}

func testTrace(t *testing.T, seed int64) []cache.Request {
	t.Helper()
	tr, err := gen.Generate(gen.Config{
		Name: "p", Seed: seed,
		Requests:    80_000,
		CatalogSize: 1500,
		ZipfAlpha:   0.8,
		OneHitFrac:  0.35,
		EchoProb:    0.2, EchoDelay: 80, EchoTailFrac: 0.5,
		EpochRequests: 30_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Requests
}

// all policies must respect the capacity invariant and produce sane hit
// behaviour on a generic workload.
func TestAllPoliciesCapacityInvariant(t *testing.T) {
	capBytes := int64(400_000)
	builders := map[string]func() cache.Policy{
		"MIP":    func() cache.Policy { return NewCache("MIP", capBytes, MIP{}) },
		"LIP":    func() cache.Policy { return NewCache("LIP", capBytes, LIP{}) },
		"BIP":    func() cache.Policy { return NewCache("BIP", capBytes, NewBIP(1)) },
		"DIP":    func() cache.Policy { return NewCache("DIP", capBytes, NewDIP(capBytes, 1)) },
		"SHiP":   func() cache.Policy { return NewCache("SHiP", capBytes, NewSHiP()) },
		"DAAIP":  func() cache.Policy { return NewCache("DAAIP", capBytes, NewDAAIP(1)) },
		"ASC-IP": func() cache.Policy { return NewCache("ASC-IP", capBytes, NewASCIP(capBytes)) },
		"DTA":    func() cache.Policy { return NewCache("DTA", capBytes, NewDTA()) },
		"PIPP":   func() cache.Policy { return NewPIPP(capBytes, 1) },
		"DGIPPR": func() cache.Policy { return NewDGIPPR(capBytes, 1) },
	}
	reqs := testTrace(t, 3)
	for name, build := range builders {
		p := build()
		hits := 0
		for i, r := range reqs {
			if p.Access(r) {
				hits++
			}
			if p.Used() > p.Capacity() {
				t.Fatalf("%s: capacity exceeded at request %d", name, i)
			}
		}
		if hits == 0 {
			t.Errorf("%s: zero hits on a reusable workload", name)
		}
		// Re-access of a just-inserted object must hit for all policies.
		p2 := build()
		p2.Access(req(0, 1_000_000, 500))
		if !p2.Access(req(1, 1_000_000, 500)) {
			t.Errorf("%s: immediate re-access missed", name)
		}
	}
}

func TestFixedPolicyPositions(t *testing.T) {
	r := req(0, 1, 1)
	if (MIP{}).ChooseInsert(r) != cache.MRU || (MIP{}).ChoosePromote(r) != cache.MRU {
		t.Fatal("MIP positions wrong")
	}
	if (LIP{}).ChooseInsert(r) != cache.LRU || (LIP{}).ChoosePromote(r) != cache.MRU {
		t.Fatal("LIP positions wrong")
	}
}

func TestBIPMostlyLRU(t *testing.T) {
	b := NewBIP(7)
	mru := 0
	for i := 0; i < 10_000; i++ {
		if b.ChooseInsert(req(0, 1, 1)) == cache.MRU {
			mru++
		}
	}
	// Expect ~1/32 = 312; allow generous bounds.
	if mru < 150 || mru > 600 {
		t.Fatalf("BIP MRU insertions = %d of 10000, want ~312", mru)
	}
	if b.ChoosePromote(req(0, 1, 1)) != cache.MRU {
		t.Fatal("BIP must promote to MRU")
	}
}

func TestDIPFollowsWinner(t *testing.T) {
	capBytes := int64(100_000)
	d := NewDIP(capBytes, 5)
	d.psel = 5
	if d.ChooseInsert(req(0, 1, 1)) != cache.MRU {
		t.Fatal("positive PSEL should insert MRU")
	}
	d.psel = -5
	lru := 0
	for i := 0; i < 1000; i++ {
		if d.ChooseInsert(req(0, 1, 1)) == cache.LRU {
			lru++
		}
	}
	if lru < 900 {
		t.Fatalf("negative PSEL should mostly insert LRU, got %d/1000", lru)
	}
}

func TestSHiPLearnsDeadSignature(t *testing.T) {
	s := NewSHiP()
	// Evict the same signature dead repeatedly.
	for i := 0; i < 10; i++ {
		s.OnEvict(cache.EvictInfo{Key: 42, Size: 1 << 12, InsertedMRU: true, EverHit: false})
	}
	if s.ChooseInsert(req(0, 42, 1<<12)) != cache.LRU {
		t.Fatal("dead signature should insert at LRU")
	}
	// Hits on that signature rehabilitate it.
	for i := 0; i < 5; i++ {
		s.OnAccess(req(0, 42, 1<<12), true)
	}
	if s.ChooseInsert(req(0, 42, 1<<12)) != cache.MRU {
		t.Fatal("rehabilitated signature should insert at MRU")
	}
}

func TestDAAIPClassCounters(t *testing.T) {
	d := NewDAAIP(3)
	d.Escape = 0 // deterministic for the test
	size := int64(1 << 10)
	for i := 0; i < 20; i++ {
		d.OnEvict(cache.EvictInfo{Key: uint64(i), Size: size, EverHit: false})
	}
	if d.ChooseInsert(req(0, 99, size)) != cache.LRU {
		t.Fatal("dead class should insert at LRU")
	}
	for i := 0; i < 20; i++ {
		d.OnAccess(req(0, 1, size), true)
	}
	if d.ChooseInsert(req(0, 99, size)) != cache.MRU {
		t.Fatal("live class should insert at MRU")
	}
}

func TestASCIPThresholdAdapts(t *testing.T) {
	a := NewASCIP(1 << 20)
	t0 := a.Threshold()
	// Large never-hit MRU evictions pull the threshold down.
	for i := 0; i < 50; i++ {
		a.OnEvict(cache.EvictInfo{Key: uint64(i), Size: 1 << 15, InsertedMRU: true, EverHit: false})
	}
	if a.Threshold() >= t0 {
		t.Fatalf("threshold did not drop: %g -> %g", t0, a.Threshold())
	}
	down := a.Threshold()
	// Ghost hits push it back up.
	a.OnEvict(cache.EvictInfo{Key: 7, Size: 1 << 15, InsertedMRU: false})
	a.OnAccess(req(0, 7, 1<<15), false)
	if a.Threshold() <= down {
		t.Fatalf("threshold did not rise after ghost hit: %g", a.Threshold())
	}
	// Objects over the threshold insert at LRU.
	aa := NewASCIP(1 << 20)
	aa.threshold = 1000
	if aa.ChooseInsert(req(0, 1, 2000)) != cache.LRU {
		t.Fatal("large object should insert at LRU")
	}
	if aa.ChooseInsert(req(0, 1, 500)) != cache.MRU {
		t.Fatal("small object should insert at MRU")
	}
}

func TestDTATrainsAndPredicts(t *testing.T) {
	d := NewDTA()
	d.Retrain = 512
	// Feed a synthetic stream: large objects always die, small ones are
	// always reused.
	idx := 0
	for round := 0; round < 3000; round++ {
		big := req(int64(idx), uint64(1_000_000+round), 1<<14)
		d.OnAccess(big, false)
		d.ChooseInsert(big)
		d.OnEvict(cache.EvictInfo{Key: big.Key, Size: big.Size, InsertedMRU: true, EverHit: false})
		small := req(int64(idx+1), uint64(round%10), 1<<8)
		d.OnAccess(small, false)
		d.ChooseInsert(small)
		d.OnAccess(small, true) // reused
		idx += 2
	}
	if !d.trained {
		t.Fatal("DTA never trained")
	}
	probe := req(int64(idx), 5_000_000, 1<<14)
	d.OnAccess(probe, false)
	if d.ChooseInsert(probe) != cache.LRU {
		t.Fatal("trained DTA should demote always-dead size class")
	}
	probe2 := req(int64(idx+1), 3, 1<<8)
	d.OnAccess(probe2, false)
	if d.ChooseInsert(probe2) != cache.MRU {
		t.Fatal("trained DTA should protect reused size class")
	}
}

func TestSegQueueOrderAndBalance(t *testing.T) {
	q := NewSegQueue()
	for i := 0; i < 64; i++ {
		q.InsertAt(uint64(i), 100, 0)
	}
	if q.Len() != 64 || q.Bytes() != 6400 {
		t.Fatalf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	keys := q.keysInOrder()
	if len(keys) != 64 {
		t.Fatalf("order length %d", len(keys))
	}
	// All inserted at front of seg 0: global order is reverse insertion,
	// with rebalancing preserving relative order.
	for i := 0; i < 63; i++ {
		if keys[i] < keys[i+1] {
			t.Fatalf("order violated at %d: %v", i, keys[:8])
		}
	}
	// Eviction takes the oldest.
	key, _, ok := q.EvictBack()
	if !ok || key != 0 {
		t.Fatalf("EvictBack = %d,%v, want 0,true", key, ok)
	}
}

func TestSegQueueStepUp(t *testing.T) {
	q := NewSegQueue()
	for i := 0; i < 16; i++ {
		q.InsertAt(uint64(i), 100, 0)
	}
	h := q.Get(3)
	before := position(q, 3)
	q.StepUp(h)
	after := position(q, 3)
	if after != before-1 {
		t.Fatalf("StepUp moved from %d to %d", before, after)
	}
	// Stepping the global front is a no-op.
	frontKey := q.keysInOrder()[0]
	q.StepUp(q.Get(frontKey))
	if position(q, frontKey) != 0 {
		t.Fatal("front entry moved")
	}
}

func position(q *SegQueue, key uint64) int {
	for i, k := range q.keysInOrder() {
		if k == key {
			return i
		}
	}
	return -1
}

func TestSegQueueInsertAtClamps(t *testing.T) {
	q := NewSegQueue()
	q.InsertAt(1, 10, -5)
	q.InsertAt(2, 10, 99)
	if q.Len() != 2 {
		t.Fatal("clamped inserts failed")
	}
	for _, k := range []uint64{1, 2} {
		h := q.Get(k)
		if h == cache.None {
			t.Fatalf("entry %d missing", k)
		}
		if e := q.At(h); e.Class < 0 || e.Class >= NumSegments {
			t.Fatalf("entry %d has invalid segment", k)
		}
	}
	// With a realistic population, a seg-0 insert outlives a seg-7 insert.
	q2 := NewSegQueue()
	for i := 0; i < 64; i++ {
		q2.InsertAt(uint64(100+i), 100, 3)
	}
	q2.InsertAt(1, 100, -5) // clamped to 0 (MRU)
	q2.InsertAt(2, 100, 99) // clamped to 7 (LRU)
	if position(q2, 1) > position(q2, 2) {
		t.Fatal("MRU-clamped insert should sit above LRU-clamped insert")
	}
}

func TestPIPPInsertPositionMidQueue(t *testing.T) {
	p := NewPIPP(10_000, 1)
	p.PromoteProb = 0 // isolate insertion behaviour
	for i := 0; i < 80; i++ {
		p.Access(req(int64(i), uint64(i), 100))
	}
	// A new object inserted mid-queue must be evicted before objects in
	// the MRU half survive.
	pos := position(p.q, 79)
	if pos < 20 || pos > 60 {
		t.Fatalf("fresh PIPP insert at position %d of 80, want mid-queue", pos)
	}
}

func TestPIPPPromotionStep(t *testing.T) {
	p := NewPIPP(10_000, 1)
	p.PromoteProb = 1
	for i := 0; i < 50; i++ {
		p.Access(req(int64(i), uint64(i), 100))
	}
	before := position(p.q, 10)
	p.Access(req(100, 10, 100))
	after := position(p.q, 10)
	if after != before-1 {
		t.Fatalf("PIPP hit moved entry from %d to %d, want single step", before, after)
	}
}

func TestDGIPPREvolves(t *testing.T) {
	g := NewDGIPPR(200_000, 2)
	g.Epoch = 500
	reqs := testTrace(t, 5)
	gen0Ins, gen0Pro := g.Chromosome()
	for _, r := range reqs {
		g.Access(r)
	}
	// After many generations the GA must have run without corrupting the
	// queue; fitness bookkeeping sanity:
	if g.reqs != len(reqs) {
		t.Fatalf("request counter %d, want %d", g.reqs, len(reqs))
	}
	_ = gen0Ins
	_ = gen0Pro
	if g.Used() > g.Capacity() {
		t.Fatal("capacity violated")
	}
}

func TestDGIPPRBreedKeepsPopulationSize(t *testing.T) {
	g := NewDGIPPR(10_000, 3)
	for i := range g.fitness {
		g.fitness[i] = i
	}
	g.breed()
	if len(g.pop) != g.Population {
		t.Fatalf("population size %d after breed", len(g.pop))
	}
	for _, c := range g.pop {
		if c.insertSeg < 0 || c.insertSeg >= NumSegments || c.promote < 0 || c.promote > 3 {
			t.Fatalf("invalid chromosome %+v", c)
		}
	}
}

// LIP must beat MIP on a pure ZRO flood over a small hot set, and MIP
// must beat LIP on a recency-friendly stream — the two regimes the
// adaptive policies arbitrate between.
func TestLIPvsMIPRegimes(t *testing.T) {
	capBytes := int64(50_000)
	// Regime 1: hot set fits, plus a flood of one-hit wonders large
	// enough that MRU insertion thrashes the hot set.
	var flood []cache.Request
	next := uint64(1 << 20)
	for i := 0; i < 40_000; i++ {
		if i%4 == 0 {
			flood = append(flood, req(int64(i), uint64(i/4%40), 1000)) // hot
		} else {
			flood = append(flood, req(int64(i), next, 1000)) // one-hit
			next++
		}
	}
	hits := func(ins cache.InsertionPolicy, reqs []cache.Request) int {
		c := NewCache("x", capBytes, ins)
		h := 0
		for _, r := range reqs {
			if c.Access(r) {
				h++
			}
		}
		return h
	}
	if lip, mip := hits(LIP{}, flood), hits(MIP{}, flood); lip <= mip {
		t.Fatalf("LIP (%d) should beat MIP (%d) on ZRO flood", lip, mip)
	}
	// Regime 2: pure recency stream (cyclic reuse within cache size).
	var recency []cache.Request
	for i := 0; i < 40_000; i++ {
		recency = append(recency, req(int64(i), uint64(i%45), 1000))
	}
	if lip, mip := hits(LIP{}, recency), hits(MIP{}, recency); mip < lip {
		t.Fatalf("MIP (%d) should not lose to LIP (%d) on recency stream", mip, lip)
	}
}
