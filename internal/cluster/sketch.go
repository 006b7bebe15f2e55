package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Sketch is a count-min frequency sketch with atomic counters: depth
// rows of width counters (width rounded up to a power of two), each row
// indexed by an independently mixed hash of the key. Observe increments
// one counter per row and returns the new minimum across rows — an
// estimate that can only over-count (hash collisions add, never
// subtract), which is the right bias for hot-key detection: a key the
// sketch calls hot gets replicated a little early at worst.
//
// All methods are safe for concurrent use. The row mixers are fixed
// constants, so two sketches fed the same observation multiset hold the
// same counters regardless of interleaving (each counter is a sum of
// atomic increments) — the determinism property TestSketchDeterminism
// and the -race suite pin.
type Sketch struct {
	mask uint64
	rows [sketchDepth][]atomic.Uint32
}

// sketchDepth is the row count. Four rows put the over-count probability
// per row-collision at (n/width)^4 — ample for a top-k gate.
const sketchDepth = 4

// rowSeeds decorrelate the rows: each row hashes mix64(key ^ seed).
// Fixed constants (digits of phi and e), not process randomness — the
// sketch must behave identically across router restarts.
var rowSeeds = [sketchDepth]uint64{
	0x9E3779B97F4A7C15, 0x2545F4914F6CDD1D, 0x27220A95FE5A39E9, 0x6C62272E07BB0142,
}

// NewSketch returns a sketch with the given counter width per row
// (rounded up to a power of two, min 16).
func NewSketch(width int) *Sketch {
	w := 16
	for w < width {
		w <<= 1
	}
	s := &Sketch{mask: uint64(w - 1)}
	for i := range s.rows {
		s.rows[i] = make([]atomic.Uint32, w)
	}
	return s
}

// Observe counts one access of key and returns the new estimate (the
// minimum counter across rows after the increment).
func (s *Sketch) Observe(key uint64) uint32 {
	est := ^uint32(0)
	for i := range s.rows {
		c := s.rows[i][mix64(key^rowSeeds[i])&s.mask].Add(1)
		if c < est {
			est = c
		}
	}
	return est
}

// Estimate returns key's current estimate without counting an access.
func (s *Sketch) Estimate(key uint64) uint32 {
	est := ^uint32(0)
	for i := range s.rows {
		c := s.rows[i][mix64(key^rowSeeds[i])&s.mask].Load()
		if c < est {
			est = c
		}
	}
	return est
}

// hotEntry is one member of the top-k set.
type hotEntry struct {
	key   uint64
	count uint32
}

// HotKeys tracks the top-k keys by sketch estimate: the router's
// replication gate. A key becomes hot once its estimate reaches Min and
// either the set has room or the key outranks the coldest member (which
// it displaces). Members never cool down on their own — estimates only
// grow — so within one router process the hot set only churns upward;
// a restart clears it, which is fine because replication is a
// performance hint, not a correctness property (a replica that never
// saw a key simply misses and peer-fills or refetches).
//
// The member set is a small slice scanned linearly: k is tiny (tens),
// the scan is branch-predictable, and unlike a map it gives the
// deterministic tie-breaking (lowest count loses, larger key breaks
// ties) that makes a sequential observation stream reproduce the exact
// same hot set on every run.
type HotKeys struct {
	sketch *Sketch
	k      int
	min    uint32

	mu      sync.Mutex
	members []hotEntry // guarded by mu
}

// NewHotKeys returns a tracker admitting at most k hot keys, each with a
// sketch estimate of at least min. width sizes the backing sketch.
func NewHotKeys(k int, min uint32, width int) *HotKeys {
	if k < 1 {
		k = 1
	}
	if min < 1 {
		min = 1
	}
	return &HotKeys{
		sketch:  NewSketch(width),
		k:       k,
		min:     min,
		members: make([]hotEntry, 0, k),
	}
}

// Observe counts one access of key and reports whether key is hot after
// the access.
func (h *HotKeys) Observe(key uint64) bool {
	est := h.sketch.Observe(key)
	if est < h.min {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.members {
		if h.members[i].key == key {
			h.members[i].count = est
			return true
		}
	}
	if len(h.members) < h.k {
		h.members = append(h.members, hotEntry{key: key, count: est})
		return true
	}
	// Displace the coldest member if the candidate outranks it. Ties
	// keep the incumbent: est must be strictly greater, and among
	// equally cold incumbents the one with the larger key is evicted —
	// both rules are arbitrary but deterministic.
	victim := 0
	for i := 1; i < len(h.members); i++ {
		if h.members[i].count < h.members[victim].count ||
			(h.members[i].count == h.members[victim].count && h.members[i].key > h.members[victim].key) {
			victim = i
		}
	}
	if est > h.members[victim].count {
		h.members[victim] = hotEntry{key: key, count: est}
		return true
	}
	return false
}

// Hot reports whether key is currently a member of the hot set, without
// counting an access.
func (h *HotKeys) Hot(key uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.members {
		if h.members[i].key == key {
			return true
		}
	}
	return false
}

// Len returns the current hot-set size.
func (h *HotKeys) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.members)
}

// Members returns the hot keys in ascending key order (a copy; for
// /statusz and tests).
func (h *HotKeys) Members() []uint64 {
	h.mu.Lock()
	out := make([]uint64, len(h.members))
	for i := range h.members {
		out[i] = h.members[i].key
	}
	h.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Estimate exposes the backing sketch's estimate for key.
func (h *HotKeys) Estimate(key uint64) uint32 { return h.sketch.Estimate(key) }
