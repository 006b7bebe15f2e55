package replacement

import (
	"math/bits"

	"github.com/scip-cache/scip/internal/cache"
)

// lhdEntry is a cached object with the age bookkeeping LHD ranks by.
type lhdEntry struct {
	key        uint64
	size       int64
	lastAccess int64 // request sequence number
	hits       int
}

func (e *lhdEntry) ItemKey() uint64 { return e.key }
func (e *lhdEntry) ItemSize() int64 { return e.size }

// LHD implements Least Hit Density (Beckmann et al., NSDI'18), coarsened
// the way the original implementation coarsens: objects are classified
// (here by size class × reused-before bit), per-class histograms of hit
// and eviction ages estimate the probability that an object of a given
// class and age will hit again, and the eviction candidate with the
// lowest hit density — hit probability per byte — is evicted from a
// random sample. Histograms decay periodically so the estimator tracks
// the workload.
type LHD struct {
	name  string
	cap   int64
	seq   int64
	store *Store[*lhdEntry]
	buf   []*lhdEntry

	hitHist   [lhdClasses][lhdAgeBuckets]float64
	evictHist [lhdClasses][lhdAgeBuckets]float64
}

var _ cache.Policy = (*LHD)(nil)

const (
	lhdSizeClasses = 20
	// lhdClasses is size class × reused-before bit.
	lhdClasses = lhdSizeClasses * 2
	// lhdSampleSize is the eviction sample.
	lhdSampleSize = 32
	// lhdAgeBuckets is the number of log-scale age buckets.
	lhdAgeBuckets = 24
	// lhdDecayEvery is the histogram decay period in requests.
	lhdDecayEvery = 1 << 16
)

// NewLHD returns an LHD cache.
func NewLHD(capBytes int64, seed int64) *LHD {
	return &LHD{
		name:  "LHD",
		cap:   capBytes,
		store: NewStore[*lhdEntry](seed + 701),
	}
}

// Name implements cache.Policy.
func (l *LHD) Name() string { return l.name }

// Capacity implements cache.Policy.
func (l *LHD) Capacity() int64 { return l.cap }

// Used implements cache.Policy.
func (l *LHD) Used() int64 { return l.store.Bytes() }

func (l *LHD) class(e *lhdEntry) int {
	c := bits.Len64(uint64(e.size))
	if c >= lhdSizeClasses {
		c = lhdSizeClasses - 1
	}
	if e.hits > 0 {
		c += lhdSizeClasses
	}
	return c
}

func (l *LHD) ageBucket(age int64) int {
	b := bits.Len64(uint64(age))
	if b >= lhdAgeBuckets {
		b = lhdAgeBuckets - 1
	}
	return b
}

// density estimates hits per byte for an entry at its current age: the
// fraction of same-class objects that, having reached this age, were hit
// rather than evicted, divided by the object size.
func (l *LHD) density(e *lhdEntry) float64 {
	cls := l.class(e)
	from := l.ageBucket(l.seq - e.lastAccess)
	var hits, evicts float64
	for b := from; b < lhdAgeBuckets; b++ {
		hits += l.hitHist[cls][b]
		evicts += l.evictHist[cls][b]
	}
	if hits+evicts == 0 {
		return 0.5 / float64(e.size) // unknown class/age: neutral prior
	}
	return hits / (hits + evicts) / float64(e.size)
}

// Access implements cache.Policy.
func (l *LHD) Access(req cache.Request) bool {
	l.seq++
	if l.seq%lhdDecayEvery == 0 {
		l.decay()
	}
	if e, ok := l.store.Get(req.Key); ok {
		l.hitHist[l.class(e)][l.ageBucket(l.seq-e.lastAccess)]++
		e.hits++
		e.lastAccess = l.seq
		return true
	}
	if req.Size > l.cap || req.Size <= 0 {
		return false
	}
	for l.store.Bytes()+req.Size > l.cap {
		l.evictOne()
	}
	l.store.Add(&lhdEntry{key: req.Key, size: req.Size, lastAccess: l.seq})
	return false
}

func (l *LHD) evictOne() {
	l.buf = l.store.Sample(lhdSampleSize, l.buf[:0])
	if len(l.buf) == 0 {
		panic("replacement: evict from empty LHD store")
	}
	victim := l.buf[0]
	best := l.density(victim)
	for _, e := range l.buf[1:] {
		if d := l.density(e); d < best {
			victim, best = e, d
		}
	}
	l.evictHist[l.class(victim)][l.ageBucket(l.seq-victim.lastAccess)]++
	l.store.Remove(victim.key)
}

func (l *LHD) decay() {
	for i := range l.hitHist {
		for b := range l.hitHist[i] {
			l.hitHist[i][b] *= 0.9
			l.evictHist[i][b] *= 0.9
		}
	}
}
