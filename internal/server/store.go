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
type bodyStore struct {
	mu       sync.Mutex
	capBytes int64
	used     int64                 //scip:guardedby mu
	m        map[uint64]*bodyEntry //scip:guardedby mu
	//scip:guardedby mu
	head, tail *bodyEntry // head = most recent
}

func newBodyStore(capBytes int64) *bodyStore {
	return &bodyStore{capBytes: capBytes, m: make(map[uint64]*bodyEntry)}
}

// get appends the stored body to dst (may be nil) and refreshes the
// entry's recency. The copy is deliberate: entry buffers are reused in
// place by put, so handing a caller store-owned memory would race with
// the next refresh of the same key. Callers pass the request's pooled
// buffer, making the steady-state copy allocation-free.
func (s *bodyStore) get(key uint64, dst []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.unlink(e)
	s.pushFront(e)
	return append(dst, e.body...), true
}

// put stores a copy of body under key, displacing least-recently-used
// bodies while over capacity. Refreshing a resident key reuses the
// entry's buffer in place (no allocation once its capacity suffices),
// which is why body may be pooled memory that the caller recycles after
// the request. Bodies larger than the store are not kept.
func (s *bodyStore) put(key uint64, body []byte) {
	n := int64(len(body))
	if n > s.capBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.used += n - int64(len(e.body))
		e.body = append(e.body[:0], body...)
		s.unlink(e)
		s.pushFront(e)
	} else {
		e := &bodyEntry{key: key, body: append([]byte(nil), body...)}
		s.m[key] = e
		s.pushFront(e)
		s.used += n
	}
	for s.used > s.capBytes && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.m, victim.key)
		s.used -= int64(len(victim.body))
	}
}

// delete removes key's body and reports whether one was stored.
func (s *bodyStore) delete(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return false
	}
	s.unlink(e)
	delete(s.m, key)
	s.used -= int64(len(e.body))
	return true
}

//scip:locked mu
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

//scip:locked mu
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
