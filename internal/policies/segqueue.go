package policies

import "github.com/scip-cache/scip/internal/cache"

// SegQueue approximates positional insertion into an LRU queue by
// maintaining NumSegments byte-balanced segments. Inserting "at position
// k/N of the queue" becomes an O(1) push onto segment k, and a PIPP-style
// single-step promotion moves an entry one place toward the MRU end
// (possibly crossing a segment boundary). Rebalancing shifts boundary
// entries between adjacent segments and is amortised O(1) per operation.
// Segment 0 is the MRU end. An entry's segment lives in Entry.Class.
// Entries live in a private pointer-free arena addressed by handles.
type SegQueue struct {
	arena cache.Arena
	segs  []cache.Queue
	index cache.Index
	bytes int64
}

// NumSegments is the positional granularity of a SegQueue.
const NumSegments = 8

// NewSegQueue returns an empty segmented queue.
func NewSegQueue() *SegQueue {
	s := &SegQueue{segs: make([]cache.Queue, NumSegments)}
	for i := range s.segs {
		s.segs[i] = s.arena.NewQueue()
	}
	return s
}

// Bytes returns the total bytes stored.
func (s *SegQueue) Bytes() int64 { return s.bytes }

// Get returns the handle for key, or cache.None.
func (s *SegQueue) Get(key uint64) cache.Handle { return s.index.Get(key) }

// At returns the entry behind a handle. The pointer stays valid until the
// handle is removed.
func (s *SegQueue) At(h cache.Handle) *cache.Entry { return s.arena.At(h) }

// InsertAt records a new object at the front of segment seg (clamped to
// the valid range) and returns its handle. The key must not already be
// present.
func (s *SegQueue) InsertAt(key uint64, size int64, seg int) cache.Handle {
	if seg < 0 {
		seg = 0
	}
	if seg >= NumSegments {
		seg = NumSegments - 1
	}
	h := s.arena.Alloc()
	e := s.arena.At(h)
	e.Key = key
	e.Size = size
	e.Class = int32(seg)
	s.segs[seg].PushFront(h)
	s.index.Put(key, h)
	s.bytes += size
	s.rebalance()
	return h
}

// EvictBack removes the globally least-recent entry, returning its key
// and size, or ok=false when empty.
func (s *SegQueue) EvictBack() (key uint64, size int64, ok bool) {
	for k := NumSegments - 1; k >= 0; k-- {
		if h := s.segs[k].Back(); h != cache.None {
			e := s.arena.At(h)
			key, size = e.Key, e.Size
			s.segs[k].Remove(h)
			s.index.Delete(key)
			s.bytes -= size
			s.arena.Free(h)
			s.rebalance()
			return key, size, true
		}
	}
	return 0, 0, false
}

// StepUp moves h one position toward the MRU end: within its segment, or
// by swapping with its global predecessor when it is already at its
// segment's front (a swap keeps the segment byte balance, so rebalancing
// cannot immediately undo the promotion). At the global front it is a
// no-op.
func (s *SegQueue) StepUp(h cache.Handle) {
	seg := s.arena.At(h).Class
	if s.segs[seg].Front() != h {
		s.segs[seg].MoveTowardFront(h)
		return
	}
	prev := seg - 1
	for prev >= 0 && s.segs[prev].Len() == 0 {
		prev--
	}
	if prev < 0 {
		return
	}
	pred := s.segs[prev].Back()
	s.segs[prev].Remove(pred)
	s.segs[seg].Remove(h)
	s.arena.At(h).Class = prev
	s.segs[prev].PushBack(h)
	s.arena.At(pred).Class = seg
	s.segs[seg].PushFront(pred)
}

// MoveToFront moves h to the global MRU position.
func (s *SegQueue) MoveToFront(h cache.Handle) {
	e := s.arena.At(h)
	s.segs[e.Class].Remove(h)
	e.Class = 0
	s.segs[0].PushFront(h)
	s.rebalance()
}

// rebalance nudges boundary entries so segment byte sizes stay within a
// quarter-target of each other, preserving global order.
func (s *SegQueue) rebalance() {
	target := s.bytes / NumSegments
	slack := target/4 + 1
	for k := 0; k < NumSegments-1; k++ {
		for s.segs[k].Bytes() > target+slack {
			h := s.segs[k].Back()
			if h == cache.None {
				break
			}
			s.segs[k].Remove(h)
			s.arena.At(h).Class = int32(k + 1)
			s.segs[k+1].PushFront(h)
		}
		for s.segs[k].Bytes() < target-slack && s.segs[k+1].Len() > 0 {
			h := s.segs[k+1].Front()
			s.segs[k+1].Remove(h)
			s.arena.At(h).Class = int32(k)
			s.segs[k].PushBack(h)
		}
	}
}
