package cluster

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSketchOverCountsOnly pins the count-min bias: an estimate may
// exceed the true count (collisions add) but never undershoot it.
func TestSketchOverCountsOnly(t *testing.T) {
	s := NewSketch(256)
	truth := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		key := uint64(rng.Intn(500))
		truth[key]++
		if est := s.Observe(key); est < truth[key] {
			t.Fatalf("key %d: estimate %d below true count %d", key, est, truth[key])
		}
	}
	for key, n := range truth {
		if est := s.Estimate(key); est < n {
			t.Fatalf("key %d: final estimate %d below true count %d", key, est, n)
		}
	}
}

// TestSketchDeterminism pins that counters are a pure function of the
// observation multiset: the same stream in two different orders yields
// identical estimates (each counter is a sum of increments).
func TestSketchDeterminism(t *testing.T) {
	keys := make([]uint64, 5000)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = uint64(rng.Intn(200))
	}
	a, b := NewSketch(512), NewSketch(512)
	for _, k := range keys {
		a.Observe(k)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		b.Observe(k)
	}
	for key := uint64(0); key < 200; key++ {
		if a.Estimate(key) != b.Estimate(key) {
			t.Fatalf("key %d: order-dependent estimate (%d vs %d)", key, a.Estimate(key), b.Estimate(key))
		}
	}
}

// TestSketchConcurrentConservation hammers one sketch from many
// goroutines under -race: afterwards every key's estimate must cover the
// exact number of observations made for it.
func TestSketchConcurrentConservation(t *testing.T) {
	s := NewSketch(1024)
	const (
		workers = 8
		perKey  = 500
		keys    = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				for k := uint64(0); k < keys; k++ {
					s.Observe(k)
				}
			}
		}(w)
	}
	wg.Wait()
	for k := uint64(0); k < keys; k++ {
		if est := s.Estimate(k); est < workers*perKey {
			t.Errorf("key %d: estimate %d below the %d observations made", k, est, workers*perKey)
		}
	}
}

// TestHotKeysMinGate pins the admission threshold: a key below min never
// enters the hot set, the first observation at min does.
func TestHotKeysMinGate(t *testing.T) {
	h := NewHotKeys(4, 10, 256)
	for i := 0; i < 9; i++ {
		if h.Observe(77) {
			t.Fatalf("key hot after %d observations (min 10)", i+1)
		}
	}
	if !h.Observe(77) {
		t.Fatal("key not hot at the min estimate")
	}
	if !h.Hot(77) || h.Len() != 1 {
		t.Fatalf("hot set %v after admission", h.Members())
	}
	if h.Hot(78) {
		t.Error("unobserved key reported hot")
	}
}

// TestHotKeysDisplacement pins the top-k contract: with k slots, the k
// highest-frequency keys end up as the members and the coldest incumbent
// is the one displaced.
func TestHotKeysDisplacement(t *testing.T) {
	h := NewHotKeys(2, 2, 256)
	observe := func(key uint64, n int) {
		for i := 0; i < n; i++ {
			h.Observe(key)
		}
	}
	observe(1, 5) // hot
	observe(2, 3) // hot (fills the set)
	observe(3, 4) // outranks key 2, displaces it
	if !h.Hot(1) || !h.Hot(3) || h.Hot(2) {
		t.Fatalf("hot set %v, want [1 3]", h.Members())
	}
	// A tie must keep the incumbent.
	observe(4, 4)
	if h.Hot(4) {
		t.Errorf("tying candidate displaced an incumbent; set %v", h.Members())
	}
}

// TestHotKeysDeterminism pins that a sequential observation stream
// reproduces the exact same hot set on every run — the property the
// slice-scanned member set (deterministic tie-breaking) exists for.
func TestHotKeysDeterminism(t *testing.T) {
	stream := make([]uint64, 30000)
	rng := rand.New(rand.NewSource(11))
	for i := range stream {
		stream[i] = uint64(rng.Intn(100))
	}
	run := func() []uint64 {
		h := NewHotKeys(8, 16, 512)
		for _, k := range stream {
			h.Observe(k)
		}
		return h.Members()
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("stream produced no hot keys")
	}
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d produced %v, first run %v", i+2, got, first)
		}
	}
}

// TestHotKeysConcurrent exercises the tracker under -race: Observe
// writers run while one goroutine each calls Hot, Len and Members until
// the writers finish. A reader that mixed the three would order itself
// after the writers at each lock and hide an unlocked read. The 256 keys
// overflow the 64-member set, so members are added and displaced while
// the readers run. Membership is timing-dependent here, so only
// invariants are asserted.
func TestHotKeysConcurrent(t *testing.T) {
	const k = 64
	h := NewHotKeys(k, 8, 512)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var n int
				switch r {
				case 0:
					h.Hot(uint64(i % 256))
				case 1:
					n = h.Len()
				default:
					n = len(h.Members())
				}
				if n > k {
					t.Errorf("hot set overflowed k while readers ran: %d members", n)
					return
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Observe(uint64(i % 256))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := h.Len(); n > k {
		t.Errorf("hot set overflowed k: %d members", n)
	}
	if n := len(h.Members()); n == 0 {
		t.Error("no key went hot despite heavy repetition")
	}
}
