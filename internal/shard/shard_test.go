package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/sim"
)

func lruBuilder(capBytes int64, _ int) cache.Policy { return cache.NewLRU(capBytes) }

// TestShardSlotPadding asserts that every shard slot occupies a whole
// number of cache lines and fully covers its payload, so neighbouring
// shards in the slot array never share a 64-byte line.
func TestShardSlotPadding(t *testing.T) {
	size := unsafe.Sizeof(shardSlot{})
	if size%64 != 0 {
		t.Fatalf("shardSlot size %d is not a cache-line multiple", size)
	}
	if size < slotDataSize {
		t.Fatalf("shardSlot size %d smaller than payload %d", size, slotDataSize)
	}
	if slotPad < 1 || slotPad > 64 {
		t.Fatalf("slotPad = %d, want 1..64", slotPad)
	}
	// The mutex of slot i+1 must start on a different line than slot i's.
	var two [2]shardSlot
	a := uintptr(unsafe.Pointer(&two[0].mu)) / 64
	b := uintptr(unsafe.Pointer(&two[1].mu)) / 64
	if a == b {
		t.Fatal("adjacent shard mutexes share a cache line")
	}
}

func scipBuilder(capBytes int64, shard int) cache.Policy {
	return core.NewCache(capBytes, core.WithSeed(int64(shard)+1), core.WithInterval(2000))
}

func TestNewValidates(t *testing.T) {
	if _, err := New("x", 100, 4, nil); err == nil {
		t.Fatal("nil builder accepted")
	}
	if _, err := New("x", 0, 4, lruBuilder); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := New("x", 100, 4, func(int64, int) cache.Policy { return nil }); err == nil {
		t.Fatal("nil shard policy accepted")
	}
}

func TestShardCountRoundsUp(t *testing.T) {
	c, err := New("x", 1<<20, 5, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 8 {
		t.Fatalf("shards = %d, want 8", c.Shards())
	}
	if c.Capacity() != (1<<20)/8*8 {
		t.Fatalf("capacity = %d", c.Capacity())
	}
}

// TestCapacitySplitExact is the regression test for the remainder-drop
// bug: shard.New used capBytes/size per shard, so any budget not divisible
// by the shard count silently shrank the cache and Capacity() disagreed
// with the requested budget. The split must now be exact for every budget,
// and ShardBytes must report the same split.
func TestCapacitySplitExact(t *testing.T) {
	cases := []struct {
		name     string
		capBytes int64
		n        int
		shards   int
	}{
		{"divisible", 1 << 20, 8, 8},
		{"remainder", 1<<30 + 7, 8, 8},
		{"prime budget", 1_000_003, 16, 16},
		{"one shard", 12345, 1, 1},
		{"round up with remainder", 1000, 5, 8},
		{"budget smaller than shards", 5, 8, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			perShard := map[int]int64{}
			c, err := New("x", tc.capBytes, tc.n, func(capBytes int64, shard int) cache.Policy {
				mu.Lock()
				perShard[shard] = capBytes
				mu.Unlock()
				return cache.NewLRU(capBytes)
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.Shards() != tc.shards {
				t.Fatalf("shards = %d, want %d", c.Shards(), tc.shards)
			}
			var sum int64
			var min, max int64 = 1 << 62, -1
			for i, b := range perShard {
				// ShardBytes is the split server.New sizes its body stores by.
				if got := ShardBytes(tc.capBytes, c.Shards(), i); got != b {
					t.Fatalf("ShardBytes(shard %d) = %d, New gave %d", i, got, b)
				}
				sum += b
				if b < min {
					min = b
				}
				if b > max {
					max = b
				}
			}
			if sum != tc.capBytes {
				t.Fatalf("sum(shard capacities) = %d, want %d", sum, tc.capBytes)
			}
			if max-min > 1 {
				t.Fatalf("uneven split: min %d max %d", min, max)
			}
			if c.Capacity() != tc.capBytes {
				t.Fatalf("Capacity() = %d, want requested budget %d", c.Capacity(), tc.capBytes)
			}
		})
	}
}

func TestBasicHitMiss(t *testing.T) {
	c, err := New("x", 1<<20, 4, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	r := cache.Request{Time: 1, Key: 42, Size: 100}
	if c.Access(r) {
		t.Fatal("cold access hit")
	}
	if !c.Access(r) {
		t.Fatal("warm access missed")
	}
	if c.Used() != 100 {
		t.Fatalf("Used = %d", c.Used())
	}
}

func TestKeyAffinity(t *testing.T) {
	c, _ := New("x", 1<<20, 8, lruBuilder)
	// The same key must always land on the same shard: a warm key keeps
	// hitting no matter how many other keys interleave.
	c.Access(cache.Request{Key: 7, Size: 10})
	for i := 0; i < 1000; i++ {
		c.Access(cache.Request{Key: uint64(1000 + i), Size: 10})
		if !c.Access(cache.Request{Key: 7, Size: 10}) {
			t.Fatalf("warm key missed at iteration %d", i)
		}
	}
}

// TestConcurrentAccess hammers the cache from many goroutines; run with
// -race to verify the locking discipline. Besides the Access workers, two
// goroutines run AccessBatch on the same shard and one runs Remove over
// the workers' keys, so every policy-touching path of ModeMutex contends
// with the others.
func TestConcurrentAccess(t *testing.T) {
	c, err := New("scip", 1<<22, 8, scipBuilder)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 20_000
	)
	var shard0 []cache.Request
	for k := uint64(0); len(shard0) < 16; k++ {
		if c.ShardIndex(k) == 0 {
			shard0 = append(shard0, cache.Request{Key: k, Size: 256})
		}
	}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := uint64((w*perW + i) % 500)
				if c.Access(cache.Request{Time: int64(i), Key: key, Size: 256}) {
					hits.Add(1)
				}
			}
		}(w)
	}
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := append([]cache.Request(nil), shard0...)
			for i := 0; i < perW/len(batch); i++ {
				for j := range batch {
					batch[j].Time = int64(i)
				}
				c.AccessBatch(0, batch, nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perW; i++ {
			c.Remove(uint64(i % 500))
		}
	}()
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no hits under concurrent access")
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("capacity invariant violated: %d > %d", c.Used(), c.Capacity())
	}
}

// TestShardingMissRatioPenalty checks the approximation cost: sharding a
// SCIP cache 8 ways must stay within ~2 points of the unsharded miss
// ratio on a profile workload.
func TestShardingMissRatioPenalty(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.001)
	opts := sim.Options{WarmupFrac: 0.2}
	mono := sim.Run(tr, scipBuilder(capBytes, 0), opts)
	sharded, err := New("scip-8", capBytes, 8, scipBuilder)
	if err != nil {
		t.Fatal(err)
	}
	sh := sim.Run(tr, sharded, opts)
	if sh.MissRatio() > mono.MissRatio()+0.02 {
		t.Fatalf("sharding penalty too high: %.4f vs %.4f", sh.MissRatio(), mono.MissRatio())
	}
}

// TestStatsWiring checks that the stats view reports every access with
// the correct hit/byte accounting and occupancy gauge, on the shard the
// key actually routes to.
func TestStatsWiring(t *testing.T) {
	c, err := New("x", 1<<20, 4, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	reqs := []cache.Request{
		{Time: 1, Key: 1, Size: 100},
		{Time: 2, Key: 1, Size: 100}, // hit
		{Time: 3, Key: 2, Size: 50},
	}
	for _, r := range reqs {
		c.Access(r)
	}
	snap := st.Snapshot()
	tot := snap.Totals()
	if tot.Requests != 3 || tot.Hits != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.BytesRequested != 250 || tot.BytesHit != 100 {
		t.Fatalf("byte totals = %+v", tot)
	}
	if tot.UsedBytes != c.Used() {
		t.Fatalf("UsedBytes gauge %d != Used() %d", tot.UsedBytes, c.Used())
	}
	// The access path is clock-free: latency is observed caller-side
	// (Histogram.Observe), never by shard.Cache itself.
	if snap.LatencySamples() != 0 {
		t.Fatalf("latency samples = %d, want 0", snap.LatencySamples())
	}
	idx := c.ShardIndex(1)
	if got := snap.Shards[idx].Hits; got != 1 {
		t.Fatalf("hit recorded on wrong shard: shard %d has %d hits", idx, got)
	}
}

// TestStatsEvictionCounter fills a tiny sharded cache past capacity and
// checks the eviction gauges flow through from the shard policies.
func TestStatsEvictionCounter(t *testing.T) {
	c, err := New("x", 4096, 2, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	for i := 0; i < 256; i++ {
		c.Access(cache.Request{Time: int64(i), Key: uint64(i), Size: 512})
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions despite 32x oversubscription")
	}
	if got := st.Snapshot().Totals().Evictions; got != c.Evictions() {
		t.Fatalf("stats evictions %d != policy evictions %d", got, c.Evictions())
	}
}

// TestConcurrentAccessUsedReset hammers Access, Used, Capacity, Evictions
// and stats Snapshot from 8 goroutines with stats attached; run with
// -race to verify the locking discipline end to end. The 256 KB working
// set overflows the 64 KiB cache, so Evictions reads a counter the
// accesses keep writing. (The cache has no Reset; the name is kept so
// existing test selections still match.)
func TestConcurrentAccessUsedReset(t *testing.T) {
	c, err := New("scip", 1<<16, 8, scipBuilder)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	const (
		workers = 8
		perW    = 10_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				switch {
				case i%100 == 99:
					if c.Used() > c.Capacity() {
						t.Error("Used exceeds Capacity")
						return
					}
					_ = c.Evictions()
					_ = st.Snapshot().OccupancySkew()
				default:
					c.Access(cache.Request{Time: int64(i), Key: uint64((w*perW + i) % 1000), Size: 256})
				}
			}
		}(w)
	}
	wg.Wait()
	if tot := st.Snapshot().Totals(); tot.Requests == 0 {
		t.Fatal("stats recorded no requests")
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions: the working set must overflow the cache")
	}
}

func BenchmarkShardedParallelAccess(b *testing.B) {
	c, err := New("scip", 1<<24, 16, scipBuilder)
	if err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			c.Access(cache.Request{Time: int64(i), Key: i % 4096, Size: 512})
		}
	})
}

func BenchmarkUnshardedSerialAccess(b *testing.B) {
	p := scipBuilder(1<<24, 0)
	for i := 0; i < b.N; i++ {
		p.Access(cache.Request{Time: int64(i), Key: uint64(i % 4096), Size: 512})
	}
}

// TestRemove checks invalidation routing: Remove deletes the key from
// the shard it routes to, updates the occupancy gauge, and is not
// counted as an eviction (operator invalidation is not a placement
// signal).
func TestRemove(t *testing.T) {
	c, err := New("x", 1<<20, 4, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	c.Access(cache.Request{Time: 1, Key: 1, Size: 100})
	c.Access(cache.Request{Time: 2, Key: 2, Size: 50})

	removed, supported := c.Remove(1)
	if !supported || !removed {
		t.Fatalf("Remove(1) = %v, %v; want removed and supported", removed, supported)
	}
	if c.Used() != 50 {
		t.Fatalf("Used = %d after Remove, want 50", c.Used())
	}
	idx := c.ShardIndex(1)
	if got := st.Snapshot().Shards[idx].UsedBytes; got != c.shards[idx].p.Used() {
		t.Fatalf("shard %d UsedBytes gauge %d stale after Remove", idx, got)
	}
	if got := st.Snapshot().Totals().Evictions; got != 0 {
		t.Fatalf("Remove counted as eviction: %d", got)
	}
	if removed, _ := c.Remove(1); removed {
		t.Fatal("second Remove reported present")
	}
	if c.Access(cache.Request{Time: 3, Key: 1, Size: 100}) {
		t.Fatal("removed key reported hit")
	}
}

// TestRemoveUnsupported: a policy without cache.Remover support reports
// supported=false and stays untouched. SCIP/SCI/LRU are all
// QueueCache-backed and removable; a bare non-Remover policy stands in
// for LRB here to keep the shard tests free of the lrb import.
func TestRemoveUnsupported(t *testing.T) {
	c, err := New("fixed", 1<<20, 2, func(b int64, _ int) cache.Policy {
		return noRemovePolicy{cache.NewLRU(b)}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(cache.Request{Time: 1, Key: 1, Size: 100})
	used := c.Used()
	if _, supported := c.Remove(1); supported {
		t.Fatal("non-Remover policy reported Remove support")
	}
	if c.Used() != used {
		t.Fatal("unsupported Remove changed occupancy")
	}
}

// noRemovePolicy hides the embedded QueueCache's Remove so the wrapper
// does not satisfy cache.Remover.
type noRemovePolicy struct{ *cache.QueueCache }

func (noRemovePolicy) Remove() {}
