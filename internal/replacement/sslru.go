package replacement

import (
	"math/bits"

	"github.com/scip-cache/scip/internal/cache"
)

// SSLRU is Smart Segmented LRU (Li et al., DAC'22): a probation/protected
// segmented LRU whose admission and promotion are gated by a lightweight
// reuse predictor. Our predictor follows the original's spirit with the
// signals available in a CDN object cache: per-size-class reuse counters
// (hit increments, dead eviction decrements). Objects of classes with no
// predicted reuse enter the probation tail; reused objects move to the
// protected segment, whose overflow demotes back to probation.
type SSLRU struct {
	// ProtectedFrac is the protected segment's share of capacity
	// (default 0.75).
	ProtectedFrac float64

	name      string
	cap       int64
	arena     cache.Arena
	probation cache.Queue
	protected cache.Queue
	index     cache.Index
	classes   [40]int
}

var _ cache.Policy = (*SSLRU)(nil)

// Segment ids for Entry.Class.
const (
	segProbation = 0
	segProtected = 1
)

// NewSSLRU returns an SS-LRU cache.
func NewSSLRU(capBytes int64) *SSLRU {
	s := &SSLRU{
		ProtectedFrac: 0.75,
		name:          "SS-LRU",
		cap:           capBytes,
	}
	s.probation = s.arena.NewQueue()
	s.protected = s.arena.NewQueue()
	return s
}

// Name implements cache.Policy.
func (s *SSLRU) Name() string { return s.name }

// Capacity implements cache.Policy.
func (s *SSLRU) Capacity() int64 { return s.cap }

// Used implements cache.Policy.
func (s *SSLRU) Used() int64 { return s.probation.Bytes() + s.protected.Bytes() }

func (s *SSLRU) class(size int64) int {
	c := bits.Len64(uint64(size))
	if c >= len(s.classes) {
		c = len(s.classes) - 1
	}
	return c
}

// Access implements cache.Policy.
func (s *SSLRU) Access(req cache.Request) bool {
	if h := s.index.Get(req.Key); h != cache.None {
		e := s.arena.At(h)
		e.Hits++
		c := s.class(req.Size)
		if s.classes[c] < 16 {
			s.classes[c]++
		}
		// Reused objects move (or refresh) into the protected segment.
		if e.Class == segProtected {
			s.protected.MoveToFront(h)
		} else {
			s.probation.Remove(h)
			e.Class = segProtected
			s.protected.PushFront(h)
			s.balanceProtected()
		}
		return true
	}
	if req.Size > s.cap || req.Size <= 0 {
		return false
	}
	h := s.arena.Alloc()
	e := s.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	e.Class = segProbation
	s.index.Put(req.Key, h)
	// The smart admission: classes with no observed reuse enter at the
	// probation tail, where the next eviction takes them.
	if s.classes[s.class(req.Size)] <= 0 {
		s.probation.PushBack(h)
	} else {
		s.probation.PushFront(h)
	}
	for s.Used() > s.cap {
		s.evictOne()
	}
	return false
}

// balanceProtected demotes protected overflow back to probation's head.
func (s *SSLRU) balanceProtected() {
	limit := int64(s.ProtectedFrac * float64(s.cap))
	for s.protected.Bytes() > limit {
		tail := s.protected.Back()
		s.protected.Remove(tail)
		s.arena.At(tail).Class = segProbation
		s.probation.PushFront(tail)
	}
}

func (s *SSLRU) evictOne() {
	h := s.probation.Back()
	if h == cache.None {
		h = s.protected.Back()
		if h == cache.None {
			panic("replacement: evict from empty SS-LRU")
		}
		s.protected.Remove(h)
	} else {
		s.probation.Remove(h)
	}
	victim := s.arena.At(h)
	s.index.Delete(victim.Key)
	if victim.Hits == 0 {
		c := s.class(victim.Size)
		if s.classes[c] > -16 {
			s.classes[c]--
		}
	}
	s.arena.Free(h)
}
