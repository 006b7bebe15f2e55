package replacement

import "github.com/scip-cache/scip/internal/cache"

// S4LRU is the quadruply-segmented LRU of the Facebook photo-caching
// study (Huang et al., adopted for CDN photo stores by Zhou et al.).
// The cache is split into four equal LRU segments; missing objects enter
// segment 0, a hit in segment i moves the object to the head of segment
// min(i+1, 3), and overflow of segment i demotes its tail to the head of
// segment i−1 (segment 0 evicts).
type S4LRU struct {
	cap   int64
	arena cache.Arena
	segs  [4]cache.Queue
	index cache.Index
}

var _ cache.Policy = (*S4LRU)(nil)

// NewS4LRU returns an S4LRU cache.
func NewS4LRU(capBytes int64) *S4LRU {
	s := &S4LRU{cap: capBytes}
	for i := range s.segs {
		s.segs[i] = s.arena.NewQueue()
	}
	return s
}

// Name implements cache.Policy.
func (s *S4LRU) Name() string { return "S4LRU" }

// Capacity implements cache.Policy.
func (s *S4LRU) Capacity() int64 { return s.cap }

// Used implements cache.Policy.
func (s *S4LRU) Used() int64 {
	var b int64
	for i := range s.segs {
		b += s.segs[i].Bytes()
	}
	return b
}

// segCap is the per-segment byte budget.
func (s *S4LRU) segCap() int64 { return s.cap / 4 }

// Access implements cache.Policy.
func (s *S4LRU) Access(req cache.Request) bool {
	h := s.index.Get(req.Key)
	if h != cache.None {
		s.promote(h)
		return true
	}
	if req.Size > s.cap || req.Size <= 0 {
		return false
	}
	h = s.arena.Alloc()
	e := s.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	s.index.Put(req.Key, h)
	s.segs[0].PushFront(h)
	s.overflow()
	return false
}

// promote moves a hit entry up one segment.
func (s *S4LRU) promote(h cache.Handle) {
	e := s.arena.At(h)
	next := e.Class + 1
	if next > 3 {
		next = 3
	}
	s.segs[e.Class].Remove(h)
	e.Class = next
	s.segs[next].PushFront(h)
	s.overflow()
}

// overflow cascades demotions down the segments and evicts from segment 0.
func (s *S4LRU) overflow() {
	for i := 3; i >= 1; i-- {
		for s.segs[i].Bytes() > s.segCap() {
			tail := s.segs[i].Back()
			s.segs[i].Remove(tail)
			s.arena.At(tail).Class = int32(i - 1)
			s.segs[i-1].PushFront(tail)
		}
	}
	// Segment 0 absorbs the rest of the global budget.
	for s.Used() > s.cap {
		tail := s.segs[0].Back()
		if tail == cache.None {
			return
		}
		victim := s.arena.At(tail)
		s.segs[0].Remove(tail)
		s.index.Delete(victim.Key)
		s.arena.Free(tail)
	}
}
