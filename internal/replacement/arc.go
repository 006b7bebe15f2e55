package replacement

import "github.com/scip-cache/scip/internal/cache"

// ARC is the adaptive replacement cache (Megiddo & Modha) generalised to
// byte capacities: T1 holds objects seen once recently, T2 objects seen
// at least twice; ghost lists B1/B2 remember recent evictions from each
// and steer the adaptation target p (in bytes) toward whichever ghost is
// producing hits.
type ARC struct {
	name   string
	cap    int64
	p      int64
	arena  cache.Arena
	t1, t2 cache.Queue
	b1, b2 *cache.History
	index  cache.Index
}

var _ cache.Policy = (*ARC)(nil)

// Entry.Class values for ARC lists.
const (
	arcT1 = 1
	arcT2 = 2
)

// NewARC returns an ARC cache.
func NewARC(capBytes int64) *ARC {
	a := &ARC{
		name: "ARC",
		cap:  capBytes,
		b1:   cache.NewHistory(capBytes),
		b2:   cache.NewHistory(capBytes),
	}
	a.t1 = a.arena.NewQueue()
	a.t2 = a.arena.NewQueue()
	return a
}

// Name implements cache.Policy.
func (a *ARC) Name() string { return a.name }

// Capacity implements cache.Policy.
func (a *ARC) Capacity() int64 { return a.cap }

// Used implements cache.Policy.
func (a *ARC) Used() int64 { return a.t1.Bytes() + a.t2.Bytes() }

// P exposes the adaptation target for tests.
func (a *ARC) P() int64 { return a.p }

// Access implements cache.Policy.
func (a *ARC) Access(req cache.Request) bool {
	if h := a.index.Get(req.Key); h != cache.None {
		// Case I: hit in T1 or T2 — move to MRU of T2.
		e := a.arena.At(h)
		e.Hits++
		if e.Class == arcT1 {
			a.t1.Remove(h)
			e.Class = arcT2
			a.t2.PushFront(h)
		} else {
			a.t2.MoveToFront(h)
		}
		return true
	}
	if req.Size > a.cap || req.Size <= 0 {
		return false
	}
	switch {
	case a.b1.Contains(req.Key):
		// Case II: ghost hit in B1 — favour recency.
		a.p = min64(a.p+max64(req.Size, a.b2.Bytes()/max64(a.b1.Bytes(), 1)*req.Size), a.cap)
		a.b1.Delete(req.Key)
		a.replace(false)
		a.insert(req, arcT2)
	case a.b2.Contains(req.Key):
		// Case III: ghost hit in B2 — favour frequency.
		a.p = max64(a.p-max64(req.Size, a.b1.Bytes()/max64(a.b2.Bytes(), 1)*req.Size), 0)
		a.b2.Delete(req.Key)
		a.replace(true)
		a.insert(req, arcT2)
	default:
		// Case IV: cold miss.
		a.replace(false)
		a.insert(req, arcT1)
	}
	return false
}

// insert places the object and enforces capacity.
func (a *ARC) insert(req cache.Request, class int) {
	for a.Used()+req.Size > a.cap {
		a.replaceOnce(false)
	}
	h := a.arena.Alloc()
	e := a.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	e.Class = int32(class)
	a.index.Put(req.Key, h)
	if class == arcT1 {
		a.t1.PushFront(h)
	} else {
		a.t2.PushFront(h)
	}
}

// replace evicts until the directories respect their budgets.
func (a *ARC) replace(inB2 bool) {
	for a.Used() > a.cap {
		a.replaceOnce(inB2)
	}
}

// replaceOnce performs one REPLACE step of the ARC algorithm.
func (a *ARC) replaceOnce(inB2 bool) {
	if a.t1.Len() > 0 && (a.t1.Bytes() > a.p || (inB2 && a.t1.Bytes() >= a.p)) {
		a.evictFrom(&a.t1, a.b1)
		return
	}
	if a.t2.Len() == 0 {
		if a.t1.Len() == 0 {
			panic("replacement: ARC replace on empty cache")
		}
		a.evictFrom(&a.t1, a.b1)
		return
	}
	a.evictFrom(&a.t2, a.b2)
}

// evictFrom drops the LRU entry of q into the ghost list b.
func (a *ARC) evictFrom(q *cache.Queue, b *cache.History) {
	h := q.Back()
	victim := a.arena.At(h)
	key, size := victim.Key, victim.Size
	q.Remove(h)
	a.index.Delete(key)
	a.arena.Free(h)
	b.Add(key, size, cache.ResInserted)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
