package cache

// Request is a single object access in a trace.
type Request struct {
	// Time is a monotonically non-decreasing logical timestamp. The
	// synthetic generators emit seconds. It orders traces (trace I/O
	// rejects a decreasing one) and drives the TDC deployment timeline;
	// no policy reads it, so a cache decision never depends on it.
	Time int64
	// Key identifies the object.
	Key uint64
	// Size is the object size in bytes. Must be > 0.
	Size int64
}

// Policy is a complete cache replacement algorithm: victim selection plus
// insertion/promotion. Access processes one request and reports whether it
// hit. Implementations are single-goroutine; the simulator never calls
// Access concurrently.
type Policy interface {
	// Name returns a short identifier used in experiment tables.
	Name() string
	// Access processes req and returns true if the object was already
	// cached (a hit).
	Access(req Request) bool
	// Used returns the number of bytes currently cached.
	Used() int64
	// Capacity returns the configured capacity in bytes.
	Capacity() int64
}

// Remover is implemented by policies that support external invalidation:
// removing an object on command (a DELETE from a cache daemon) rather
// than by capacity pressure. A removal is not an eviction — it does not
// count toward EvictionCounter and is not reported to the insertion
// policy's OnEvict, because the learning signals of Algorithm 1 are
// about placement decisions, not operator actions.
type Remover interface {
	// Remove deletes key if cached and reports whether it was present.
	Remove(key uint64) bool
}

// EvictionCounter is implemented by policies that track their cumulative
// eviction count. The sharded front uses it to export per-shard eviction
// counters without a per-eviction callback on the hot path.
type EvictionCounter interface {
	// Evictions returns the number of objects evicted since construction.
	Evictions() int64
}

// Position is a queue insertion position chosen by an insertion policy.
type Position int

const (
	// MRU inserts at the most-recently-used (head) end.
	MRU Position = iota
	// LRU inserts at the least-recently-used (tail) end.
	LRU
)

// String returns "MRU" or "LRU".
func (p Position) String() string {
	if p == MRU {
		return "MRU"
	}
	return "LRU"
}

// Residency classifies how an object's current stay at its queue position
// began. Each hit starts a new residency (the promotion re-inserts the
// object), so every placement decision owns exactly one residency.
type Residency uint8

const (
	// ResInserted: the residency began with a miss insertion.
	ResInserted Residency = iota
	// ResFirstHit: the residency began with the first hit after an
	// insertion — the point where P-ZROs reveal themselves.
	ResFirstHit
	// ResRepeat: the residency began with a second or later consecutive
	// hit; the object is demonstrably hot.
	ResRepeat
)

// EvictInfo describes an eviction as seen by an insertion policy.
type EvictInfo struct {
	// Key and Size identify the victim.
	Key  uint64
	Size int64
	// InsertedMRU reports whether the victim's latest (re-)insertion
	// placed it at the MRU position.
	InsertedMRU bool
	// EverHit reports whether the victim was hit during its latest
	// residency (since its last insertion or promotion).
	EverHit bool
	// Residency reports how the victim's final residency began.
	Residency Residency
}

// InsertionPolicy decides where missing and hit objects are placed in an
// LRU-style queue. It is the pluggable component that SCIP, ASC-IP and the
// other insertion baselines implement; replacement algorithms with a queue
// (LRU, LRU-K, LRB, ...) consult it on every miss and hit.
type InsertionPolicy interface {
	// Name returns a short identifier used in experiment tables.
	Name() string
	// ChooseInsert picks the position for a missing object about to be
	// inserted.
	ChooseInsert(req Request) Position
	// ChoosePromote picks the position for a hit object about to be
	// re-inserted (the promotion treated as a special insertion).
	ChoosePromote(req Request) Position
	// OnEvict informs the policy that an object was evicted from the
	// real cache.
	OnEvict(ev EvictInfo)
	// OnAccess is called for every request before the insert/promote
	// decision, with the hit outcome, so the policy can learn.
	OnAccess(req Request, hit bool)
}

// ResidencyObserver is an optional extension of InsertionPolicy. When the
// policy implements it, the cache reports every hit on a resident object
// together with the provenance of its current residency — the positive
// counterpart of the never-hit eviction signal: the placement decision
// that kept this object resident has just been validated.
type ResidencyObserver interface {
	// OnResidentHit is called when req hits. insertedMRU and res
	// describe the residency that produced the hit; hits is the number
	// of hits in this residency including this one.
	OnResidentHit(req Request, insertedMRU bool, res Residency, hits int)
}
