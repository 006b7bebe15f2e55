package server

import "sync"

// bodyEntry is one stored object body on the store's intrusive LRU list.
type bodyEntry struct {
	key        uint64
	body       []byte
	prev, next *bodyEntry
}

// bodyStore is a byte-bounded LRU store for object bodies, one per
// shard. It is intentionally independent of the policy cache: the policy
// decides hit/miss (the accounting truth), the store merely keeps bytes
// around to serve. The two can disagree — a policy hit whose body was
// displaced triggers an origin refetch, and a displaced policy entry
// whose body survives is what serve-stale degradation serves — and both
// disagreements are counted, not hidden (see the scip_server_* metrics).
//
// Stored bodies are immutable: a slice is never written after it is
// installed (put copies caller memory in, adopt takes ownership, and a
// refresh swaps the entry's slice instead of writing into it). That is
// what lets get hand out the stored slice itself, outside the lock.
type bodyStore struct {
	mu         sync.Mutex // guards used, m and the list
	capBytes   int64
	used       int64
	m          map[uint64]*bodyEntry
	head, tail *bodyEntry // head = most recent
}

func newBodyStore(capBytes int64) *bodyStore {
	return &bodyStore{capBytes: capBytes, m: make(map[uint64]*bodyEntry)}
}

// get returns key's stored body and refreshes the entry's recency. The
// slice is the store's own and stays valid after a later refresh, evict
// or delete of the key; callers must not write to it.
func (s *bodyStore) get(key uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	return e.body, true
}

// put stores a copy of body under key; body may be pooled memory the
// caller recycles after the request.
func (s *bodyStore) put(key uint64, body []byte) {
	s.adopt(key, append([]byte(nil), body...))
}

// adopt stores body itself under key, displacing least-recently-used
// bodies while over capacity. The caller hands body over and must not
// write to it again. A body larger than the store is not kept, and
// neither is the key's previous body: serving that would serve
// superseded content.
func (s *bodyStore) adopt(key uint64, body []byte) {
	n := int64(len(body))
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if n > s.capBytes {
		if ok {
			s.remove(e)
		}
		return
	}
	if ok {
		s.used += n - int64(len(e.body))
		e.body = body
		s.unlink(e)
	} else {
		e = &bodyEntry{key: key, body: body}
		s.m[key] = e
		s.used += n
	}
	s.pushFront(e)
	for s.used > s.capBytes && s.tail != nil {
		s.remove(s.tail)
	}
}

// delete removes key's body and reports whether one was stored.
func (s *bodyStore) delete(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if ok {
		s.remove(e)
	}
	return ok
}

// remove, pushFront and unlink edit the index and the list; callers
// hold s.mu.
func (s *bodyStore) remove(e *bodyEntry) {
	s.unlink(e)
	delete(s.m, e.key)
	s.used -= int64(len(e.body))
}

func (s *bodyStore) pushFront(e *bodyEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *bodyStore) unlink(e *bodyEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
