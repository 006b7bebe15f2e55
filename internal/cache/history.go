package cache

// History is a FIFO shadow list storing metadata (key and size only) of
// evicted objects, as used by SCIP's H_m and H_l and by several baselines'
// ghost caches. New entries enter at the MRU end; when the byte budget is
// exceeded the oldest entries are dropped from the LRU end (Algorithm 1,
// ADD). Lookup, insert and delete are O(1). Records live in a
// pointer-free arena indexed by an open-addressing table, so even large
// ghost lists add no GC scan work. The arena and index are private
// (NewHistory) or a host cache's (NewSharedHistory), where one index maps
// residents and ghosts alike; every lookup checks that the entry it finds
// is on this list.
type History struct {
	arena  *Arena
	q      Queue
	index  *Index
	cap    int64
	shared bool // in a host's store: AddEvicted adopts the victim's entry
}

// NewHistory returns a history list with the given byte capacity, in a
// private arena and index. A zero or negative capacity yields a list that
// stores nothing.
func NewHistory(capBytes int64) *History {
	h := &History{arena: new(Arena), index: new(Index), cap: capBytes}
	h.q = h.arena.NewQueue()
	return h
}

// NewSharedHistory returns a history list with the given byte capacity
// that keeps its records in a host cache's arena and index.
func NewSharedHistory(capBytes int64, a *Arena, x *Index) *History {
	return &History{arena: a, q: a.NewQueue(), index: x, cap: capBytes, shared: true}
}

// get returns key's index slot and the handle of its record on this
// list, or None when the key is absent or held elsewhere in the store.
func (h *History) get(key uint64) (uint64, Handle) {
	i, hd := h.index.find(key)
	if hd == None {
		return i, None
	}
	if handleChecks {
		h.arena.checkIndexed(hd, key)
	}
	if h.arena.dir.at(hd).owner != h.q.id {
		return i, None
	}
	return i, hd
}

// trim drops the oldest records until at most limit bytes remain.
func (h *History) trim(limit int64) {
	for h.q.Bytes() > limit {
		h.drop(h.q.Back())
	}
}

// drop unlinks, unindexes and frees one record.
func (h *History) drop(old Handle) {
	key := h.arena.At(old).Key
	h.q.Remove(old)
	h.index.Delete(key)
	h.arena.Free(old)
}

// Bytes returns the bytes of metadata-tracked objects currently recorded.
func (h *History) Bytes() int64 { return h.q.Bytes() }

// Len returns the number of recorded objects.
func (h *History) Len() int { return h.q.Len() }

// Contains reports whether key is recorded.
func (h *History) Contains(key uint64) bool {
	_, hd := h.get(key)
	return hd != None
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
	if _, hd := h.get(key); hd != None {
		h.refresh(hd, size, res)
		return
	}
	if h.shared && h.index.Get(key) != None {
		panic("cache: Add of a key the shared store holds elsewhere")
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

// AddEvicted records the victim of an eviction. A private list calls
// Add. A list in the evicting cache's store adopts the victim's entry,
// still indexed under its key, with a trim and a PushFront: no index
// operation and no Alloc. It panics unless ev.Handle is detached and
// holds ev.Key.
func (h *History) AddEvicted(ev EvictInfo) {
	if !h.shared {
		h.Add(ev.Key, ev.Size, ev.Residency)
		return
	}
	e := h.arena.At(ev.Handle)
	if e.owner != 0 || e.Key != ev.Key {
		panic("cache: AddEvicted of an entry that is not the detached victim")
	}
	if h.cap <= 0 || ev.Size > h.cap {
		return
	}
	h.trim(h.cap - ev.Size)
	h.q.PushFront(ev.Handle)
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
	i, hd := h.get(key)
	if hd == None {
		return ResInserted, false
	}
	h.index.removeAt(i)
	res = h.arena.At(hd).Residency
	h.q.Remove(hd)
	h.arena.Free(hd)
	return res, true
}
