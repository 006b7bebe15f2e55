package cache

import (
	"math/rand"
	"testing"
)

func req(t int64, key uint64, size int64) Request { return Request{Time: t, Key: key, Size: size} }

func TestLRUHitMiss(t *testing.T) {
	c := NewLRU(100)
	if c.Access(req(1, 1, 50)) {
		t.Fatal("first access hit")
	}
	if !c.Access(req(2, 1, 50)) {
		t.Fatal("second access missed")
	}
	if c.Used() != 50 {
		t.Fatalf("Used=%d, want 50", c.Used())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(1, 1, 40))
	c.Access(req(2, 2, 40))
	c.Access(req(3, 1, 40)) // promote 1; LRU order now 2,1
	c.Access(req(4, 3, 40)) // needs eviction: 2 goes
	if c.Contains(2) {
		t.Fatal("LRU victim should have been 2")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("wrong objects evicted")
	}
}

func TestLRUCapacityNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewLRU(10_000)
	for i := 0; i < 20000; i++ {
		c.Access(req(int64(i), uint64(rng.Intn(500)), int64(rng.Intn(3000)+1)))
		if c.Used() > c.Capacity() {
			t.Fatalf("step %d: used %d > cap %d", i, c.Used(), c.Capacity())
		}
	}
}

func TestLRUOversizedBypass(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(1, 1, 60))
	if c.Access(req(2, 2, 500)) {
		t.Fatal("oversized object reported hit")
	}
	if c.Contains(2) {
		t.Fatal("oversized object admitted")
	}
	if !c.Contains(1) {
		t.Fatal("oversized bypass evicted resident object")
	}
}

func TestLRUZeroSizeBypass(t *testing.T) {
	c := NewLRU(100)
	if c.Access(req(1, 1, 0)) {
		t.Fatal("zero-size access reported hit")
	}
	if c.Contains(1) {
		t.Fatal("zero-size object admitted")
	}
}

func TestQueueCacheEvictHook(t *testing.T) {
	c := NewLRU(100)
	var evicted []uint64
	c.EvictHook = func(e *Entry) { evicted = append(evicted, e.Key) }
	c.Access(req(1, 1, 60))
	c.Access(req(2, 2, 60))
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted = %v, want [1]", evicted)
	}
}

func TestQueueCacheEntryMetadata(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(5, 1, 10))
	e := c.Entry(1)
	if e == nil || e.Freq != 1 || e.Hits != 0 {
		t.Fatalf("unexpected metadata after insert: %+v", e)
	}
	if !e.InsertedMRU {
		t.Fatal("plain LRU insert should be MRU-marked")
	}
	c.Access(req(9, 1, 10))
	if e.Hits != 1 || e.Freq != 2 {
		t.Fatalf("unexpected metadata after hit: %+v", e)
	}
}

// lruOracle is a trivial reference LRU used to cross-check QueueCache.
type lruOracle struct {
	cap   int64
	used  int64
	order []uint64 // MRU first
	size  map[uint64]int64
}

func (o *lruOracle) access(key uint64, size int64) bool {
	for i, k := range o.order {
		if k == key {
			o.order = append(o.order[:i], o.order[i+1:]...)
			o.order = append([]uint64{key}, o.order...)
			return true
		}
	}
	if size > o.cap {
		return false
	}
	for o.used+size > o.cap {
		last := o.order[len(o.order)-1]
		o.order = o.order[:len(o.order)-1]
		o.used -= o.size[last]
		delete(o.size, last)
	}
	o.order = append([]uint64{key}, o.order...)
	o.size[key] = size
	o.used += size
	return false
}

func TestLRUMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewLRU(5000)
	o := &lruOracle{cap: 5000, size: map[uint64]int64{}}
	for i := 0; i < 30000; i++ {
		key := uint64(rng.Intn(120))
		size := int64(rng.Intn(900) + 1)
		if s, ok := o.size[key]; ok {
			size = s // same object keeps its size
		}
		got := c.Access(req(int64(i), key, size))
		want := o.access(key, size)
		if got != want {
			t.Fatalf("step %d key %d: hit=%v oracle=%v", i, key, got, want)
		}
		if c.Used() != o.used {
			t.Fatalf("step %d: used=%d oracle=%d", i, c.Used(), o.used)
		}
	}
}

// fixedIns always chooses the configured positions, for testing plumbing.
type fixedIns struct {
	insert, promote Position
	evicts          int
	accesses        int
}

func (f *fixedIns) Name() string                   { return "fixed" }
func (f *fixedIns) ChooseInsert(Request) Position  { return f.insert }
func (f *fixedIns) ChoosePromote(Request) Position { return f.promote }
func (f *fixedIns) OnEvict(EvictInfo)              { f.evicts++ }
func (f *fixedIns) OnAccess(Request, bool)         { f.accesses++ }

func TestInsertionPolicyPlumbing(t *testing.T) {
	ins := &fixedIns{insert: LRU, promote: LRU}
	c := NewQueueCache("", 100, ins)
	if c.Name() != "fixed-LRU" {
		t.Fatalf("derived name = %q", c.Name())
	}
	c.Access(req(1, 1, 40))
	if e := c.Entry(1); e.InsertedMRU {
		t.Fatal("LRU-choice insert marked as MRU")
	}
	c.Access(req(2, 2, 40)) // 2 also at LRU end, so order front->back: 1,2
	c.Access(req(3, 1, 40)) // hit 1, promoted to LRU end
	if q := c.Queue(); q.At(q.Back()).Key != 1 {
		t.Fatalf("promoted-to-LRU entry not at back, back=%d", q.At(q.Back()).Key)
	}
	c.Access(req(4, 3, 40)) // miss: evicts 1 (back)
	if c.Contains(1) {
		t.Fatal("LRU-promoted entry survived eviction")
	}
	if ins.evicts != 1 {
		t.Fatalf("evicts=%d, want 1", ins.evicts)
	}
	if ins.accesses != 4 {
		t.Fatalf("accesses=%d, want 4", ins.accesses)
	}
}

func TestPositionString(t *testing.T) {
	if MRU.String() != "MRU" || LRU.String() != "LRU" {
		t.Fatal("Position.String broken")
	}
}

func TestFreelistReusesEvictedEntry(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(1, 1, 60))
	first := c.Entry(1)
	c.Access(req(2, 2, 60)) // evicts 1, freelist now holds its entry
	c.Access(req(3, 3, 60)) // evicts 2, must reuse 1's entry
	reused := c.Entry(3)
	if reused != first {
		t.Fatal("miss after eviction did not reuse the freed entry")
	}
	if reused.Key != 3 || reused.Size != 60 || reused.Hits != 0 || reused.Freq != 1 ||
		reused.Score != 0 || reused.Class != 0 || reused.Residency != ResInserted {
		t.Fatalf("recycled entry not fully reset: %+v", reused)
	}
	if !reused.InsertedMRU {
		t.Fatal("recycled plain-LRU insert should be MRU-marked")
	}
}

func TestFreelistEvictHookSeesFinalState(t *testing.T) {
	c := NewLRU(100)
	type evicted struct {
		key  uint64
		hits int
	}
	var got []evicted
	c.EvictHook = func(e *Entry) { got = append(got, evicted{e.Key, int(e.Hits)}) }
	c.Access(req(1, 1, 60))
	c.Access(req(2, 1, 60)) // hit
	c.Access(req(3, 2, 60)) // evicts 1 (one hit, then promotion reset? plain LRU keeps Hits)
	c.Access(req(4, 3, 60)) // evicts 2, reusing 1's entry
	if len(got) != 2 || got[0].key != 1 || got[1].key != 2 {
		t.Fatalf("evictions = %+v", got)
	}
	if got[1].hits != 0 {
		t.Fatalf("recycled entry leaked hit count into next eviction: %+v", got[1])
	}
}

// TestAccessAllocsSteadyState asserts the zero-allocation replay hot
// path: steady-state hits allocate nothing, and steady-state misses are
// served from the eviction-fed freelist without allocating.
func TestAccessAllocsSteadyState(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(1, 1, 100)) // resident
	hitReq := req(2, 1, 100)
	if a := testing.AllocsPerRun(200, func() { c.Access(hitReq) }); a != 0 {
		t.Fatalf("steady-state hit allocates %.1f allocs/op, want 0", a)
	}

	// Alternate two same-sized objects through a one-slot cache: every
	// access misses, evicts the other, and must reuse its entry.
	c2 := NewLRU(100)
	c2.Access(req(1, 10, 100))
	c2.Access(req(2, 11, 100))
	i := int64(3)
	if a := testing.AllocsPerRun(200, func() {
		key := uint64(10 + i%2)
		c2.Access(req(i, key, 100))
		i++
	}); a != 0 {
		t.Fatalf("freelist-served miss allocates %.1f allocs/op, want 0", a)
	}
}

// TestAccessAllocsWithInsertionPolicy covers the hoisted
// ResidencyObserver path: a policy without the observer must not cost an
// assertion or allocation per hit, and one with it must still be
// allocation-free through the cache layer.
func TestAccessAllocsWithInsertionPolicy(t *testing.T) {
	ins := &fixedIns{insert: MRU, promote: MRU}
	c := NewQueueCache("", 100, ins)
	c.Access(req(1, 1, 100))
	hitReq := req(2, 1, 100)
	if a := testing.AllocsPerRun(200, func() { c.Access(hitReq) }); a != 0 {
		t.Fatalf("policy-driven hit allocates %.1f allocs/op, want 0", a)
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU(100)
	c.Access(req(1, 1, 40))
	c.Access(req(2, 2, 40))
	if !c.Remove(1) {
		t.Fatal("Remove of a resident key reported absent")
	}
	if c.Contains(1) {
		t.Fatal("key still resident after Remove")
	}
	if c.Used() != 40 {
		t.Fatalf("Used = %d after Remove, want 40", c.Used())
	}
	if c.Evictions() != 0 {
		t.Fatalf("Remove counted as eviction: %d", c.Evictions())
	}
	if c.Remove(1) {
		t.Fatal("second Remove reported present")
	}
	if c.Remove(99) {
		t.Fatal("Remove of never-seen key reported present")
	}
	// A removed key is a fresh miss, then resident again.
	if c.Access(req(3, 1, 40)) {
		t.Fatal("removed key reported hit")
	}
	if !c.Access(req(4, 1, 40)) {
		t.Fatal("re-inserted key missed")
	}
}

// TestRemoveRecyclesEntry checks the freed entry returns to the free
// list: capacity-many inserts after a Remove must not grow the arena
// (observable as Used staying bounded and the queue staying consistent).
func TestRemoveRecyclesEntry(t *testing.T) {
	c := NewLRU(100)
	for i := 0; i < 1000; i++ {
		k := uint64(i % 3)
		c.Access(req(int64(i), k, 30))
		if i%7 == 0 {
			c.Remove(k)
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("step %d: used %d > cap %d", i, c.Used(), c.Capacity())
		}
	}
}
