package cache

// QueueCache is a byte-capacity cache with a single LRU-ordered queue and a
// pluggable insertion/promotion policy. The victim selection policy is
// LRU: evictions always take the entry at the LRU end. With a nil
// insertion policy it behaves as plain LRU (insert at MRU, promote to
// MRU), which is the configuration the paper calls "LRU". With an
// InsertionPolicy such as SCIP it becomes the paper's SCIP-LRU.
//
// The data plane is pointer-free: entries live in the chunks of an arena,
// linked by int32 handles, and the key index is an open-addressing table
// of scalars (see Arena and Index), so resident metadata contributes no
// GC scan work regardless of object count. A StoreSharer policy keeps
// its ghost lists in the same arena and index, so an indexed entry is
// resident only when its owner is the cache's own queue.
type QueueCache struct {
	name  string
	cap   int64
	arena Arena
	q     Queue
	index Index
	ins   InsertionPolicy
	// resObs and sharer are ins's ResidencyObserver and StoreSharer
	// sides, asserted once at construction/SetInsertion time so the
	// per-request path carries no type assertion.
	resObs ResidencyObserver
	sharer StoreSharer
	// evictions counts objects evicted since construction.
	evictions int64

	// EvictHook, when non-nil, observes every eviction (used by the ZRO
	// analyzer and tests), after the insertion policy's OnEvict. The
	// entry is valid for the duration of the call only: a victim no ghost
	// list adopted is freed when the hook returns, an adopted one is a
	// ghost record from then on.
	EvictHook func(e *Entry)
}

// NewQueueCache returns a cache of capBytes capacity driven by ins. A nil
// ins yields plain LRU. name is used in experiment tables; if empty it is
// derived from the insertion policy.
func NewQueueCache(name string, capBytes int64, ins InsertionPolicy) *QueueCache {
	if name == "" {
		if ins != nil {
			name = ins.Name() + "-LRU"
		} else {
			name = "LRU"
		}
	}
	c := &QueueCache{
		name: name,
		cap:  capBytes,
	}
	c.index.Init(indexHint(capBytes))
	c.q = c.arena.NewQueue()
	c.SetInsertion(ins)
	return c
}

// indexHint pre-sizes the key index from the byte capacity, assuming
// CDN-scale mean object sizes (~32 KiB), so steady-state replay does not
// repeatedly grow it. Clamped so tiny test caches and huge capacities
// both get sane starts. The arena needs no hint: it grows by chunks and
// never copies.
func indexHint(capBytes int64) int {
	h := capBytes >> 15
	if h < 16 {
		h = 16
	}
	if h > 1<<20 {
		h = 1 << 20
	}
	return int(h)
}

// NewLRU returns a plain LRU cache.
func NewLRU(capBytes int64) *QueueCache { return NewQueueCache("LRU", capBytes, nil) }

// Name implements Policy.
func (c *QueueCache) Name() string { return c.name }

// Capacity implements Policy.
func (c *QueueCache) Capacity() int64 { return c.cap }

// Used implements Policy.
func (c *QueueCache) Used() int64 { return c.q.Bytes() }

// Len returns the number of cached objects.
func (c *QueueCache) Len() int { return c.q.Len() }

// Evictions implements EvictionCounter.
func (c *QueueCache) Evictions() int64 { return c.evictions }

// Contains reports whether key is cached without touching recency state.
func (c *QueueCache) Contains(key uint64) bool {
	return c.resident(c.index.Get(key), key)
}

// resident reports whether h, found by an index lookup of key, is one of
// the cache's own entries rather than None or a ghost.
func (c *QueueCache) resident(h Handle, key uint64) bool {
	if h == None {
		return false
	}
	if handleChecks {
		c.arena.checkIndexed(h, key)
	}
	return c.arena.dir.at(h).owner == c.q.id
}

// SetInsertion installs an insertion/promotion policy into a plain-LRU
// cache, as the paper's TDC deployment did ("we have merely replaced
// LRU's insertion policy with SCIP"). Resident entries keep their marks,
// and a StoreSharer is offered the store. It panics if a policy is
// already installed: an installed policy is never swapped out, so a
// StoreSharer's ghosts stay in the store for the cache's life.
func (c *QueueCache) SetInsertion(ins InsertionPolicy) {
	if c.ins != nil {
		panic("cache: SetInsertion on a cache that already has an insertion policy")
	}
	c.ins = ins
	c.resObs, _ = ins.(ResidencyObserver)
	c.sharer, _ = ins.(StoreSharer)
	if c.sharer != nil {
		c.sharer.ShareStore(&c.arena, &c.index)
	}
}

// Access implements Policy.
func (c *QueueCache) Access(req Request) bool {
	h := c.index.Get(req.Key)
	hit := c.resident(h, req.Key)
	if c.ins != nil {
		c.ins.OnAccess(req, hit)
	}
	if hit {
		e := c.arena.At(h)
		e.Hits++
		if c.resObs != nil {
			c.resObs.OnResidentHit(req, e.InsertedMRU, e.Residency, int(e.Hits))
		}
		c.promote(h, e, req)
		return true
	}
	if req.Size > c.cap || req.Size <= 0 {
		return false // object cannot fit: bypass
	}
	c.insert(req)
	return false
}

// promote re-positions a hit entry. Plain LRU moves it to the MRU end;
// with an insertion policy the promotion is treated as a special insertion
// (Algorithm 1, PROMOTE): the entry is removed (without touching the
// history lists) and re-inserted at the chosen position.
func (c *QueueCache) promote(h Handle, e *Entry, req Request) {
	if c.ins == nil {
		c.q.MoveToFront(h)
		return
	}
	pos := c.ins.ChoosePromote(req)
	c.q.Remove(h)
	// The promotion starts a fresh residency: Hits restarts so a later
	// eviction can report whether the promoted object was ever hit again
	// (the P-ZRO signal).
	e.Hits = 0
	if e.Residency == ResInserted {
		e.Residency = ResFirstHit
	} else {
		e.Residency = ResRepeat
	}
	c.place(h, e, pos)
}

// insert admits a missing object, evicting from the LRU end as needed.
// Steady-state inserts are allocation-free: the evictions they trigger
// free arena slots the new entry is carved from.
func (c *QueueCache) insert(req Request) {
	for c.q.Bytes()+req.Size > c.cap {
		c.evictOne()
	}
	h := c.arena.Alloc()
	e := c.arena.At(h)
	e.Key = req.Key
	e.Size = req.Size
	pos := MRU
	if c.ins != nil {
		pos = c.ins.ChooseInsert(req)
	}
	c.place(h, e, pos)
	if handleChecks && c.index.Get(req.Key) != None {
		panic("cache: insert of a key still indexed (a ghost its policy kept)")
	}
	c.index.Put(req.Key, h)
}

func (c *QueueCache) place(h Handle, e *Entry, pos Position) {
	if pos == MRU {
		e.InsertedMRU = true
		c.q.PushFront(h)
	} else {
		e.InsertedMRU = false
		c.q.PushBack(h)
	}
}

func (c *QueueCache) evictOne() {
	h := c.q.Back()
	if h == None {
		panic("cache: evict from empty queue")
	}
	victim := c.arena.At(h)
	c.q.Remove(h)
	c.evictions++
	if c.ins != nil {
		c.ins.OnEvict(EvictInfo{
			Key:         victim.Key,
			Size:        victim.Size,
			InsertedMRU: victim.InsertedMRU,
			EverHit:     victim.Hits > 0,
			Residency:   victim.Residency,
			Handle:      h,
		})
	}
	if c.EvictHook != nil {
		c.EvictHook(victim)
	}
	// Unindex and recycle after the hooks have seen the victim's final
	// state, unless a ghost list sharing the store adopted it.
	if victim.owner == 0 {
		c.index.Delete(victim.Key)
		c.arena.Free(h)
	}
}

// Remove implements Remover: it drops key from the cache if present.
// Unlike an eviction it leaves the insertion policy's learning state
// untouched (no OnEvict, no history-list entry, no eviction count): an
// invalidation says nothing about whether the placement decision was
// good. A later access to the key is an ordinary miss. A ghost in the
// shared store is not cached, so Remove leaves it alone.
func (c *QueueCache) Remove(key uint64) bool {
	i, h := c.index.find(key)
	if !c.resident(h, key) {
		return false
	}
	c.index.removeAt(i)
	c.q.Remove(h)
	c.arena.Free(h)
	return true
}
