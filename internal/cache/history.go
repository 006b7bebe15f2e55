package cache

// History is a FIFO shadow list storing metadata (key and size only) of
// evicted objects, as used by SCIP's H_m and H_l and by several baselines'
// ghost caches. New entries enter at the MRU end; when the byte budget is
// exceeded the oldest entries are dropped from the LRU end (Algorithm 1,
// ADD). Lookup, insert and delete are O(1). Records live in a private
// pointer-free arena indexed by an open-addressing table, so even large
// ghost lists add no GC scan work.
type History struct {
	arena Arena
	q     Queue
	index Index
	cap   int64
}

// NewHistory returns a history list with the given byte capacity. A zero or
// negative capacity yields a list that stores nothing.
func NewHistory(capBytes int64) *History {
	h := &History{cap: capBytes}
	h.q = h.arena.NewQueue()
	return h
}

// trim drops the oldest records until at most limit bytes remain.
func (h *History) trim(limit int64) {
	for h.q.Bytes() > limit {
		old := h.q.Back()
		key := h.arena.At(old).Key
		h.q.Remove(old)
		h.index.Delete(key)
		h.arena.Free(old)
	}
}

// Bytes returns the bytes of metadata-tracked objects currently recorded.
func (h *History) Bytes() int64 { return h.q.Bytes() }

// Len returns the number of recorded objects.
func (h *History) Len() int { return h.q.Len() }

// Contains reports whether key is recorded.
func (h *History) Contains(key uint64) bool {
	return h.index.Get(key) != None
}

// Add records an evicted object, evicting the oldest records as needed to
// respect the byte budget. If the key is already present its record keeps
// its original FIFO age — Algorithm 1's history is FIFO, not LRU, so a
// re-evicted object must not have its remaining history lifetime renewed;
// only its size and residency metadata are refreshed in place. res records
// how the evicted residency began, so a later lookup can attribute the
// evidence to the right learning context.
func (h *History) Add(key uint64, size int64, res Residency) {
	if h.cap <= 0 || size > h.cap {
		return
	}
	if hd := h.index.Get(key); hd != None {
		h.refresh(hd, size, res)
		return
	}
	h.trim(h.cap - size)
	hd := h.arena.Alloc()
	e := h.arena.At(hd)
	e.Key = key
	e.Size = size
	e.Residency = res
	h.q.PushFront(hd)
	h.index.Put(key, hd)
}

// refresh updates a present record's size and residency without changing
// its queue position (its FIFO age). A size change re-links the entry at
// the same position to keep the queue's byte accounting exact, then trims
// from the LRU end if the growth pushed the list over budget — which may
// evict the refreshed record itself when it is the oldest.
func (h *History) refresh(hd Handle, size int64, res Residency) {
	e := h.arena.At(hd)
	e.Residency = res
	if e.Size != size {
		next := h.q.Next(hd)
		h.q.Remove(hd)
		e.Size = size
		if next != None {
			h.q.InsertBefore(hd, next)
		} else {
			h.q.PushBack(hd)
		}
	}
	h.trim(h.cap)
}

// Delete removes all information about key (Algorithm 1, DELETE),
// reporting whether it was present and how the recorded residency began.
func (h *History) Delete(key uint64) (res Residency, ok bool) {
	hd, found := h.index.Delete(key)
	if !found {
		return ResInserted, false
	}
	res = h.arena.At(hd).Residency
	h.q.Remove(hd)
	h.arena.Free(hd)
	return res, true
}
