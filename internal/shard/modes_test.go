package shard

import (
	"sync"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
)

// TestAccessBatchMatchesSerial: a batch call must return the same hit
// outcomes, in order, as serial Access calls, and report the hit count.
func TestAccessBatchMatchesSerial(t *testing.T) {
	serial, _ := New("a", 1<<20, 1, lruBuilder)
	batched, _ := New("b", 1<<20, 1, lruBuilder)
	reqs := []cache.Request{
		{Time: 1, Key: 1, Size: 100},
		{Time: 2, Key: 2, Size: 50},
		{Time: 3, Key: 1, Size: 100},
		{Time: 4, Key: 3, Size: 70},
		{Time: 5, Key: 2, Size: 50},
	}
	var want []bool
	for _, r := range reqs {
		want = append(want, serial.Access(r))
	}
	hits := make([]bool, len(reqs))
	n := batched.AccessBatch(0, reqs, hits)
	wantHits := 0
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("request %d: batched hit=%v, serial hit=%v", i, hits[i], want[i])
		}
		if want[i] {
			wantHits++
		}
	}
	if n != wantHits {
		t.Fatalf("AccessBatch returned %d hits, want %d", n, wantHits)
	}
	if serial.Used() != batched.Used() {
		t.Fatalf("Used diverged: %d vs %d", serial.Used(), batched.Used())
	}
}

// TestBatchedEvictionAccounting extends the TestCapacitySplitExact-style
// accounting checks to the batched path: driving a tiny cache far past
// capacity through AccessBatch must feed the same EvictionCounter and
// used-bytes gauge the serial path feeds — eviction counts and occupancy
// gauges equal to a per-request replay, and the gauges equal to what the
// policies themselves report.
func TestBatchedEvictionAccounting(t *testing.T) {
	var reqs []cache.Request
	for i := 0; i < 512; i++ {
		reqs = append(reqs, cache.Request{Time: int64(i), Key: uint64(i % 96), Size: 512})
	}
	build := func(mode Mode) (*Cache, []int64) {
		c, err := New("x", 8192, 4, lruBuilder, WithMode(mode))
		if err != nil {
			t.Fatal(err)
		}
		st := c.EnableStats()
		// Group by shard to respect the AccessBatch contract.
		byShard := make([][]cache.Request, c.Shards())
		for _, r := range reqs {
			s := c.ShardIndex(r.Key)
			byShard[s] = append(byShard[s], r)
		}
		for s, batch := range byShard {
			for len(batch) > 0 {
				n := min(7, len(batch)) // odd batch size: exercises remainders
				c.AccessBatch(s, batch[:n], nil)
				batch = batch[n:]
			}
		}
		c.Close()
		snap := st.Snapshot()
		var flat []int64
		for i, sh := range snap.Shards {
			flat = append(flat, sh.Requests, sh.Hits, sh.Evictions, sh.UsedBytes)
			if got := c.shards[i].p.Used(); sh.UsedBytes != got {
				t.Fatalf("shard %d: gauge %d != policy Used %d", i, sh.UsedBytes, got)
			}
			if ec, ok := c.shards[i].p.(cache.EvictionCounter); ok {
				if got := ec.Evictions(); sh.Evictions != got {
					t.Fatalf("shard %d: eviction gauge %d != policy count %d", i, sh.Evictions, got)
				}
			}
		}
		if tot := snap.Totals(); tot.Evictions == 0 {
			t.Fatal("no evictions despite oversubscription")
		}
		return c, flat
	}
	// Serial per-request reference on an identical cache.
	ref, err := New("x", 8192, 4, lruBuilder)
	if err != nil {
		t.Fatal(err)
	}
	refSt := ref.EnableStats()
	byShard := make([][]cache.Request, ref.Shards())
	for _, r := range reqs {
		byShard[ref.ShardIndex(r.Key)] = append(byShard[ref.ShardIndex(r.Key)], r)
	}
	for _, rs := range byShard {
		for _, r := range rs {
			ref.Access(r)
		}
	}
	var wantFlat []int64
	for _, sh := range refSt.Snapshot().Shards {
		wantFlat = append(wantFlat, sh.Requests, sh.Hits, sh.Evictions, sh.UsedBytes)
	}
	for _, mode := range []Mode{ModeMutex, ModeActor} {
		c, flat := build(mode)
		for i := range wantFlat {
			if flat[i] != wantFlat[i] {
				t.Fatalf("mode %s: accounting field %d = %d, want %d", mode, i, flat[i], wantFlat[i])
			}
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("mode %s: Used %d > Capacity %d", mode, c.Used(), c.Capacity())
		}
	}
}

// TestActorConcurrentAccess hammers a ModeActor cache from 8 goroutines
// mixing single accesses, batches and control-plane reads; run with
// -race. This is the actor-path race test: every policy touch must be
// serialised by the owner goroutine + slot mutex.
func TestActorConcurrentAccess(t *testing.T) {
	c, err := New("scip", 1<<22, 8, scipBuilder, WithMode(ModeActor), WithActorDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	const (
		workers = 8
		perW    = 5_000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]cache.Request, 0, 4)
			hits := make([]bool, 4)
			for i := 0; i < perW; i++ {
				switch {
				case i%97 == 0:
					if c.Used() > c.Capacity() {
						t.Error("Used exceeds Capacity")
						return
					}
					_ = c.Evictions()
					_ = st.Snapshot().OccupancySkew()
				case i%5 == 4:
					// A same-shard batch: four accesses of one key's shard.
					key := uint64((w*perW + i) % 700)
					idx := c.ShardIndex(key)
					batch = batch[:0]
					for j := 0; j < 4; j++ {
						batch = append(batch, cache.Request{Time: int64(i + j), Key: key, Size: 256})
					}
					c.AccessBatch(idx, batch, hits[:4])
				default:
					c.Access(cache.Request{Time: int64(i), Key: uint64((w*perW + i) % 700), Size: 256})
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	c.Close() // idempotent
	if tot := st.Snapshot().Totals(); tot.Requests == 0 {
		t.Fatal("stats recorded no requests")
	}
	// The control plane stays usable after Close.
	if c.Used() > c.Capacity() {
		t.Fatal("post-Close capacity invariant violated")
	}
}

// TestParseMode round-trips the flag values.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeMutex, ModeActor} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode accepted bogus mode")
	}
}

// TestAccessBatchValidation: mismatched hits length must panic (caller
// bug), empty batches are no-ops.
func TestAccessBatchValidation(t *testing.T) {
	c, _ := New("x", 1<<20, 2, lruBuilder)
	if n := c.AccessBatch(0, nil, nil); n != 0 {
		t.Fatalf("empty batch returned %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched hits slice did not panic")
		}
	}()
	c.AccessBatch(0, []cache.Request{{Key: 1, Size: 1}}, make([]bool, 2))
}
