package replacement

import (
	"math/rand"
)

// Sized is implemented by every store item.
type Sized interface {
	ItemKey() uint64
	ItemSize() int64
}

// Store is a keyed set of cache items with O(1) insert/lookup/remove and
// O(k) uniform sampling, the substrate for sampling-based eviction
// (LRU-K, LHD, LRB all evict the worst of a small random sample, the
// standard technique for priority-based policies over millions of
// objects).
type Store[T Sized] struct {
	items []T
	index map[uint64]int
	bytes int64
	rng   *rand.Rand
}

// NewStore returns an empty store with a deterministic sampler.
func NewStore[T Sized](seed int64) *Store[T] {
	return &Store[T]{index: make(map[uint64]int), rng: rand.New(rand.NewSource(seed))}
}

// Bytes returns the summed item sizes.
func (s *Store[T]) Bytes() int64 { return s.bytes }

// Get returns the item for key.
func (s *Store[T]) Get(key uint64) (T, bool) {
	var zero T
	i, ok := s.index[key]
	if !ok {
		return zero, false
	}
	return s.items[i], true
}

// Add inserts an item; the key must not be present.
func (s *Store[T]) Add(item T) {
	key := item.ItemKey()
	if _, ok := s.index[key]; ok {
		panic("replacement: Add of existing key")
	}
	s.index[key] = len(s.items)
	s.items = append(s.items, item)
	s.bytes += item.ItemSize()
}

// Remove deletes the item for key, returning it.
func (s *Store[T]) Remove(key uint64) (T, bool) {
	var zero T
	i, ok := s.index[key]
	if !ok {
		return zero, false
	}
	item := s.items[i]
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.index[s.items[i].ItemKey()] = i
	s.items = s.items[:last]
	delete(s.index, key)
	s.bytes -= item.ItemSize()
	return item, true
}

// Sample appends up to n uniformly drawn items (with replacement) to dst
// and returns it. Returns nil when empty.
func (s *Store[T]) Sample(n int, dst []T) []T {
	if len(s.items) == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		dst = append(dst, s.items[s.rng.Intn(len(s.items))])
	}
	return dst
}
