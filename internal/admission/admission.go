package admission

import (
	"math"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
)

// ---------------------------------------------------------------------------
// 2Q

// TwoQ is the 2Q algorithm adapted to byte budgets: newly seen objects
// enter the FIFO probation queue A1in; on eviction from A1in their keys
// are remembered in the ghost queue A1out; a miss that hits A1out admits
// the object into the long-term LRU queue Am. Only objects referenced
// again after leaving probation occupy long-term space.
type TwoQ struct {
	// KinFrac is A1in's share of capacity (default 0.25).
	KinFrac float64
	// KoutFrac sizes the A1out ghost as a fraction of capacity
	// (default 0.5).
	KoutFrac float64

	name  string
	cap   int64
	arena cache.Arena
	a1in  cache.Queue
	am    cache.Queue
	a1out *cache.History
	index cache.Index
}

// Entry.Class values for the 2Q queues.
const (
	twoQA1in = 0
	twoQAm   = 1
)

var (
	_ cache.Policy  = (*TwoQ)(nil)
	_ cache.Remover = (*TwoQ)(nil)
)

// NewTwoQ returns a 2Q cache.
func NewTwoQ(capBytes int64) *TwoQ {
	const kin, kout = 0.25, 0.5
	q := &TwoQ{
		KinFrac:  kin,
		KoutFrac: kout,
		name:     "2Q",
		cap:      capBytes,
		a1out:    cache.NewHistory(int64(kout * float64(capBytes))),
	}
	q.a1in = q.arena.NewQueue()
	q.am = q.arena.NewQueue()
	return q
}

// Name implements cache.Policy.
func (q *TwoQ) Name() string { return q.name }

// Capacity implements cache.Policy.
func (q *TwoQ) Capacity() int64 { return q.cap }

// Used implements cache.Policy.
func (q *TwoQ) Used() int64 { return q.a1in.Bytes() + q.am.Bytes() }

// Access implements cache.Policy.
func (q *TwoQ) Access(req cache.Request) bool {
	if h := q.index.Get(req.Key); h != cache.None {
		e := q.arena.At(h)
		e.Hits++
		if e.Class == twoQAm {
			q.am.MoveToFront(h)
		}
		// 2Q leaves A1in residents in FIFO order: a burst of correlated
		// references must not promote.
		return true
	}
	if req.Size > q.cap || req.Size <= 0 {
		return false
	}
	h := q.arena.Alloc()
	e := q.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	if _, wasOut := q.ghost().Delete(req.Key); wasOut {
		// Re-referenced after probation: admit to the long-term queue.
		e.Class = twoQAm
		q.am.PushFront(h)
	} else {
		e.Class = twoQA1in
		q.a1in.PushFront(h)
	}
	q.index.Put(req.Key, h)
	q.evictToFit()
	return false
}

// ghost syncs the A1out budget to the live KoutFrac before returning the
// list. KinFrac has always been read live in evictToFit; KoutFrac used to
// be baked in by NewTwoQ, so mutating the exported field was silently
// ignored. Routing every A1out touch through this accessor makes both
// knobs behave the same way.
func (q *TwoQ) ghost() *cache.History {
	if want := int64(q.KoutFrac * float64(q.cap)); want != q.a1out.Capacity() {
		q.a1out.SetCapacity(want)
	}
	return q.a1out
}

func (q *TwoQ) evictToFit() {
	// A1in is a fixed-size probation FIFO: overflow spills into the
	// ghost even while the cache as a whole has room (original 2Q).
	kin := int64(q.KinFrac * float64(q.cap))
	ghost := q.ghost()
	for q.a1in.Bytes() > kin {
		h := q.a1in.Back()
		victim := q.arena.At(h)
		key, size := victim.Key, victim.Size
		q.a1in.Remove(h)
		q.index.Delete(key)
		q.arena.Free(h)
		ghost.Add(key, size, cache.ResInserted)
	}
	for q.Used() > q.cap {
		h := q.am.Back()
		if h == cache.None {
			h = q.a1in.Back()
			victim := q.arena.At(h)
			key, size := victim.Key, victim.Size
			q.a1in.Remove(h)
			q.index.Delete(key)
			q.arena.Free(h)
			ghost.Add(key, size, cache.ResInserted)
			continue
		}
		key := q.arena.At(h).Key
		q.am.Remove(h)
		q.index.Delete(key)
		q.arena.Free(h)
	}
}

// Remove implements cache.Remover. Invalidation is an operator action,
// not an eviction: the victim must not enter the A1out ghost — a later
// re-reference would be admitted straight to Am as if the object had
// proved itself through probation.
func (q *TwoQ) Remove(key uint64) bool {
	h, ok := q.index.Delete(key)
	if !ok {
		return false
	}
	if q.arena.At(h).Class == twoQAm {
		q.am.Remove(h)
	} else {
		q.a1in.Remove(h)
	}
	q.arena.Free(h)
	return true
}

// ---------------------------------------------------------------------------
// TinyLFU

// TinyLFU is the W-TinyLFU cache: a small LRU window in front of a main
// SLRU, with a frequency sketch arbitrating admission from the window
// into the main region — a candidate only displaces the main victim if
// the sketch says it is accessed more often.
type TinyLFU struct {
	name   string
	cap    int64
	arena  cache.Arena
	window cache.Queue // ~1% of capacity
	main   cache.Queue // SLRU approximated as one LRU (protection via admission)
	index  cache.Index
	sk     *Sketch
}

// Entry.Class values for TinyLFU regions.
const (
	tlfuWindow = 0
	tlfuMain   = 1
)

var (
	_ cache.Policy  = (*TinyLFU)(nil)
	_ cache.Remover = (*TinyLFU)(nil)
)

// NewTinyLFU returns a W-TinyLFU cache.
func NewTinyLFU(capBytes int64) *TinyLFU {
	counters := int(capBytes / 4096)
	if counters < 1024 {
		counters = 1024
	}
	t := &TinyLFU{
		name: "TinyLFU",
		cap:  capBytes,
		sk:   NewSketch(counters),
	}
	t.window = t.arena.NewQueue()
	t.main = t.arena.NewQueue()
	return t
}

// Name implements cache.Policy.
func (t *TinyLFU) Name() string { return t.name }

// Capacity implements cache.Policy.
func (t *TinyLFU) Capacity() int64 { return t.cap }

// Used implements cache.Policy.
func (t *TinyLFU) Used() int64 { return t.window.Bytes() + t.main.Bytes() }

func (t *TinyLFU) windowCap() int64 {
	c := t.cap / 100
	if c < 4096 {
		c = 4096
	}
	return c
}

// Access implements cache.Policy.
func (t *TinyLFU) Access(req cache.Request) bool {
	t.sk.Add(req.Key)
	if h := t.index.Get(req.Key); h != cache.None {
		e := t.arena.At(h)
		e.Hits++
		if e.Class == tlfuWindow {
			t.window.MoveToFront(h)
		} else {
			t.main.MoveToFront(h)
		}
		return true
	}
	if req.Size > t.cap || req.Size <= 0 {
		return false
	}
	h := t.arena.Alloc()
	e := t.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	e.Class = tlfuWindow
	t.window.PushFront(h)
	t.index.Put(req.Key, h)
	// Window overflow: candidates graduate to main through the filter.
	for t.window.Bytes() > t.windowCap() {
		cand := t.window.Back()
		t.window.Remove(cand)
		t.admit(cand)
	}
	for t.Used() > t.cap {
		victim := t.main.Back()
		if victim == cache.None {
			victim = t.window.Back()
			t.window.Remove(victim)
		} else {
			t.main.Remove(victim)
		}
		t.index.Delete(t.arena.At(victim).Key)
		t.arena.Free(victim)
	}
	return false
}

// admit moves a window candidate into main if the sketch favours it over
// the main victim; otherwise the candidate is dropped.
func (t *TinyLFU) admit(cand cache.Handle) {
	c := t.arena.At(cand)
	for t.main.Bytes()+c.Size > t.cap-t.windowCap() && t.main.Len() > 0 {
		victim := t.main.Back()
		v := t.arena.At(victim)
		if t.sk.Estimate(c.Key) <= t.sk.Estimate(v.Key) {
			// Candidate loses the duel: drop it.
			t.index.Delete(c.Key)
			t.arena.Free(cand)
			return
		}
		t.main.Remove(victim)
		t.index.Delete(v.Key)
		t.arena.Free(victim)
	}
	c.Class = tlfuMain
	t.main.PushFront(cand)
}

// Remove implements cache.Remover. The frequency sketch is left alone:
// invalidation says nothing about the object's popularity, and decaying
// its counters would handicap the object in a future admission duel.
func (t *TinyLFU) Remove(key uint64) bool {
	h, ok := t.index.Delete(key)
	if !ok {
		return false
	}
	if t.arena.At(h).Class == tlfuMain {
		t.main.Remove(h)
	} else {
		t.window.Remove(h)
	}
	t.arena.Free(h)
	return true
}

// ---------------------------------------------------------------------------
// AdaptSize

// AdaptSize admits a missing object with probability e^{−size/c} and
// tunes the size parameter c to maximise the hit rate. The original
// derives the optimal c from a Markov model over a request window; this
// implementation hill-climbs c on the measured interval hit rate (the
// same controller style as SCIP's λ), which the AdaptSize paper reports
// as the natural greedy alternative.
type AdaptSize struct {
	// Interval is the tuning window in requests (default 1<<15).
	Interval int

	name     string
	inner    *cache.QueueCache
	rng      *rand.Rand
	c        float64
	dir      float64
	reqs     int
	hits     int
	prevRate float64
}

var (
	_ cache.Policy  = (*AdaptSize)(nil)
	_ cache.Remover = (*AdaptSize)(nil)
)

// NewAdaptSize returns an AdaptSize-filtered LRU cache.
func NewAdaptSize(capBytes int64, seed int64) *AdaptSize {
	return &AdaptSize{
		Interval: 1 << 15,
		name:     "AdaptSize",
		inner:    cache.NewLRU(capBytes),
		rng:      rand.New(rand.NewSource(seed + 1009)),
		c:        float64(capBytes) / 100,
		dir:      1.5,
	}
}

// Name implements cache.Policy.
func (a *AdaptSize) Name() string { return a.name }

// Capacity implements cache.Policy.
func (a *AdaptSize) Capacity() int64 { return a.inner.Capacity() }

// Used implements cache.Policy.
func (a *AdaptSize) Used() int64 { return a.inner.Used() }

// C exposes the admission size parameter for tests.
func (a *AdaptSize) C() float64 { return a.c }

// LastIntervalRate exposes the hit rate of the last completed tuning
// interval for tests and diagnostics.
func (a *AdaptSize) LastIntervalRate() float64 { return a.prevRate }

// Access implements cache.Policy. The request is classified (and its hit
// counted) before any boundary tune() fires: each interval's rate must
// divide exactly Interval classified requests by Interval, with the
// boundary request's own outcome included rather than leaking into the
// next window.
func (a *AdaptSize) Access(req cache.Request) bool {
	a.reqs++
	hit := a.inner.Contains(req.Key)
	if hit {
		a.hits++
		a.inner.Access(req)
	} else if math.Exp(-float64(req.Size)/a.c) >= a.rng.Float64() {
		// Admission filter: large objects are admitted with exponentially
		// decreasing probability.
		a.inner.Access(req)
	}
	if a.reqs%a.Interval == 0 {
		a.tune()
	}
	return hit
}

// Remove implements cache.Remover by delegating to the inner LRU, whose
// Remove already carries the required semantics: no eviction counter, no
// learning signal. The admission tuning state (c, interval counters) is
// untouched — invalidation is not evidence about object sizes.
func (a *AdaptSize) Remove(key uint64) bool {
	return a.inner.Remove(key)
}

// tune hill-climbs c on the interval hit rate.
func (a *AdaptSize) tune() {
	rate := float64(a.hits) / float64(a.Interval)
	a.hits = 0
	if rate < a.prevRate {
		// Last move hurt: reverse direction.
		a.dir = 1 / a.dir
	}
	a.prevRate = rate
	a.c *= a.dir
	lo := 1024.0
	hi := float64(a.inner.Capacity())
	if a.c < lo {
		a.c = lo
		a.dir = 1.5
	}
	if a.c > hi {
		a.c = hi
		a.dir = 1 / 1.5
	}
}
