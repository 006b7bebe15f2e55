package replacement

import (
	"github.com/scip-cache/scip/internal/cache"
)

// lrukEntry tracks the last K access times of a cached object.
type lrukEntry struct {
	key   uint64
	size  int64
	times []int64 // ring of the last K access times; times[0] oldest
	// demoted marks the entry as an immediate-eviction candidate; used
	// by the SCIP integration (LRU-K-SCIP), where an "LRU insertion"
	// maps to resetting the object's history to the infinite past.
	demoted bool
	// res tracks how the current residency began, and hits counts the
	// hits it received, for the insertion-policy integration.
	res  cache.Residency
	hits int
}

func (e *lrukEntry) ItemKey() uint64 { return e.key }
func (e *lrukEntry) ItemSize() int64 { return e.size }

// LRUK is the LRU-K replacement policy (O'Neil et al.): the victim is the
// object whose K-th most recent access is oldest (backward K-distance).
// Objects with fewer than K accesses have infinite backward distance and
// are preferred victims. Eviction ranks a random sample, the standard
// adaptation for large object caches.
type LRUK struct {
	name  string
	cap   int64
	seq   int64
	store *Store[*lrukEntry]
	buf   []*lrukEntry

	// ins, when non-nil, integrates an insertion/promotion policy
	// (LRU-K-SCIP in Figure 12): position choices map to history
	// manipulation, see Access.
	ins cache.InsertionPolicy
	// sampleSize is lrukSampleSize; a test samples exhaustively.
	sampleSize int
}

var _ cache.Policy = (*LRUK)(nil)

const (
	// lrukK is the history depth K.
	lrukK = 2
	// lrukSampleSize is the eviction sample.
	lrukSampleSize = 16
)

// NewLRUK returns an LRU-K cache (K = 2).
func NewLRUK(capBytes int64, seed int64) *LRUK {
	return &LRUK{
		name:       "LRU-K",
		cap:        capBytes,
		store:      NewStore[*lrukEntry](seed + 601),
		sampleSize: lrukSampleSize,
	}
}

// NewLRUKWithInsertion returns LRU-K enhanced by an insertion/promotion
// policy (the paper's LRU-K-SCIP / LRU-K-ASC-IP): a cache.LRU decision
// demotes the object (its access history is treated as infinitely old, so
// it is the next sampled victim), a cache.MRU decision keeps the normal
// LRU-K bookkeeping.
func NewLRUKWithInsertion(capBytes int64, seed int64, ins cache.InsertionPolicy) *LRUK {
	k := NewLRUK(capBytes, seed)
	k.ins = ins
	k.name = "LRU-K-" + ins.Name()
	return k
}

// Name implements cache.Policy.
func (l *LRUK) Name() string { return l.name }

// Capacity implements cache.Policy.
func (l *LRUK) Capacity() int64 { return l.cap }

// Used implements cache.Policy.
func (l *LRUK) Used() int64 { return l.store.Bytes() }

// kDistance returns the entry's K-th most recent access sequence number;
// entries with short history or a demotion mark rank as -1 (infinitely
// old).
func (l *LRUK) kDistance(e *lrukEntry) int64 {
	if e.demoted || len(e.times) < lrukK {
		return -1
	}
	return e.times[0]
}

// Access implements cache.Policy.
func (l *LRUK) Access(req cache.Request) bool {
	l.seq++
	e, hit := l.store.Get(req.Key)
	if l.ins != nil {
		l.ins.OnAccess(req, hit)
	}
	if hit {
		e.times = append(e.times, l.seq)
		if len(e.times) > lrukK {
			e.times = e.times[1:]
		}
		e.hits++
		if obs, ok := l.ins.(cache.ResidencyObserver); ok && l.ins != nil {
			obs.OnResidentHit(req, !e.demoted, e.res, e.hits)
		}
		e.demoted = false
		if l.ins != nil && l.ins.ChoosePromote(req) == cache.LRU {
			e.demoted = true
		}
		// Each hit starts a new residency, mirroring QueueCache.
		if e.res == cache.ResInserted {
			e.res = cache.ResFirstHit
		} else {
			e.res = cache.ResRepeat
		}
		e.hits = 0
		return true
	}
	if req.Size > l.cap || req.Size <= 0 {
		return false
	}
	for l.store.Bytes()+req.Size > l.cap {
		l.evictOne()
	}
	ne := &lrukEntry{key: req.Key, size: req.Size, times: []int64{l.seq}, res: cache.ResInserted}
	if l.ins != nil && l.ins.ChooseInsert(req) == cache.LRU {
		ne.demoted = true
	}
	l.store.Add(ne)
	return false
}

func (l *LRUK) evictOne() {
	l.buf = l.store.Sample(l.sampleSize, l.buf[:0])
	if len(l.buf) == 0 {
		panic("replacement: evict from empty LRU-K store")
	}
	victim := l.buf[0]
	best := l.kDistance(victim)
	for _, e := range l.buf[1:] {
		if d := l.kDistance(e); d < best {
			victim, best = e, d
		}
	}
	l.store.Remove(victim.key)
	if l.ins != nil {
		l.ins.OnEvict(cache.EvictInfo{
			Key:         victim.key,
			Size:        victim.size,
			InsertedMRU: !victim.demoted,
			EverHit:     victim.hits > 0,
			Residency:   victim.res,
		})
	}
}
