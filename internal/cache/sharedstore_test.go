package cache

import (
	"testing"
)

// sharingPolicy is a test-local StoreSharer shaped like SCIP: an MRU
// victim goes to hm and any other to hl, a miss deletes its key's ghost,
// and placements follow fixed patterns so every path runs.
type sharingPolicy struct {
	histCap  int64
	hm, hl   *History
	promotes int
}

func newSharingPolicy(histCap int64) *sharingPolicy {
	return &sharingPolicy{histCap: histCap, hm: NewHistory(histCap), hl: NewHistory(histCap)}
}

func (p *sharingPolicy) Name() string { return "sharing" }

func (p *sharingPolicy) ChooseInsert(r Request) Position {
	if r.Key%3 == 0 {
		return LRU
	}
	return MRU
}

func (p *sharingPolicy) ChoosePromote(Request) Position {
	p.promotes++
	if p.promotes%4 == 0 {
		return LRU
	}
	return MRU
}

func (p *sharingPolicy) OnAccess(r Request, hit bool) {
	if hit {
		return
	}
	if _, ok := p.hm.Delete(r.Key); !ok {
		p.hl.Delete(r.Key)
	}
}

func (p *sharingPolicy) OnEvict(ev EvictInfo) {
	if ev.InsertedMRU {
		p.hm.AddEvicted(ev)
	} else {
		p.hl.AddEvicted(ev)
	}
}

func (p *sharingPolicy) ShareStore(a *Arena, x *Index) {
	p.hm, p.hl = NewSharedHistory(p.histCap, a, x), NewSharedHistory(p.histCap, a, x)
}

var _ StoreSharer = (*sharingPolicy)(nil)

// liveSlots counts the arena slots that are handed out and not on the
// freelist.
func liveSlots(a *Arena) int {
	free := 0
	for f := a.free1; f != 0; f = int32(a.dir.at(Handle(f-1)).next) + 1 {
		free++
	}
	return int(a.n) - free
}

// checkSharedStore asserts the shared store's invariants: the index maps
// exactly the residents and both ghost lists, each key to the entry that
// holds it, no key is on two lists, no arena slot is orphaned, each list
// keeps its budget, and Contains holds exactly for the residents among
// keys below universe.
func checkSharedStore(t *testing.T, step int, c *QueueCache, p *sharingPolicy, universe uint64) {
	t.Helper()
	if want := c.Len() + p.hm.Len() + p.hl.Len(); c.index.n != want {
		t.Fatalf("step %d: index holds %d keys, residents+H_m+H_l = %d", step, c.index.n, want)
	}
	if live := liveSlots(&c.arena); live != c.index.n {
		t.Fatalf("step %d: %d live arena slots, %d indexed", step, live, c.index.n)
	}
	if p.hm.Bytes() > p.histCap || p.hl.Bytes() > p.histCap {
		t.Fatalf("step %d: ghost bytes %d/%d over budget %d", step, p.hm.Bytes(), p.hl.Bytes(), p.histCap)
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("step %d: used %d > capacity %d", step, c.Used(), c.Capacity())
	}
	where := map[uint64]string{}
	for _, l := range []struct {
		name string
		q    *Queue
	}{{"residents", &c.q}, {"H_m", &p.hm.q}, {"H_l", &p.hl.q}} {
		for h := l.q.Front(); h != None; h = l.q.Next(h) {
			key := c.arena.At(h).Key
			if prev, dup := where[key]; dup {
				t.Fatalf("step %d: key %d on %s and %s", step, key, prev, l.name)
			}
			where[key] = l.name
			if got := c.index.Get(key); got != h {
				t.Fatalf("step %d: key %d on %s indexed to %d, not its entry %d", step, key, l.name, got, h)
			}
		}
	}
	for k := uint64(0); k < universe; k++ {
		if got, want := c.Contains(k), where[k] == "residents"; got != want {
			t.Fatalf("step %d: Contains(%d) = %v, key is on %q", step, k, got, where[k])
		}
	}
}

// TestSharedStoreGhostsAreNotCached: a key held only as a ghost in a
// shared list is neither contained nor removable, and a Remove of it
// leaves the ghost in place, so a DELETE of an evicted key cannot tear a
// record out of H_m or H_l.
func TestSharedStoreGhostsAreNotCached(t *testing.T) {
	p := newSharingPolicy(100)
	c := NewQueueCache("", 200, p)
	c.Access(req(1, 1, 100)) // MRU
	c.Access(req(2, 3, 100)) // LRU (3%3 == 0)
	c.Access(req(3, 2, 100)) // evicts 3 into H_l
	c.Access(req(4, 4, 100)) // evicts 1 into H_m
	if !p.hm.Contains(1) || !p.hl.Contains(3) {
		t.Fatalf("setup: H_m has 1: %v, H_l has 3: %v", p.hm.Contains(1), p.hl.Contains(3))
	}
	for _, k := range []uint64{1, 3} {
		if c.Contains(k) {
			t.Fatalf("Contains(%d) = true for a ghost", k)
		}
		if c.Remove(k) {
			t.Fatalf("Remove(%d) = true for a ghost", k)
		}
	}
	if !p.hm.Contains(1) || !p.hl.Contains(3) {
		t.Fatal("Remove tore a ghost out of its list")
	}
	checkSharedStore(t, 0, c, p, 8)
	if c.Access(req(5, 1, 100)) {
		t.Fatal("access to a ghost key hit")
	}
	if p.hm.Contains(1) || !c.Contains(1) {
		t.Fatal("ghost miss did not move the key from H_m to the residents")
	}
	checkSharedStore(t, 1, c, p, 8)
}

// TestSetInsertionSharesStoreOnce replays the TDC deployment: a
// StoreSharer installed into a warm plain-LRU cache builds its ghosts in
// the cache's store beside the residents LRU left, and a second install
// panics without touching the store, so the index maps exactly the
// residents and that policy's ghosts and the store holds two ghost
// queues for the cache's life.
func TestSetInsertionSharesStoreOnce(t *testing.T) {
	const capBytes = 4000
	c := NewLRU(capBytes)
	churn := func(p *sharingPolicy, from int) {
		for i := from; i < from+3000; i++ {
			c.Access(req(int64(i), uint64(i*7919%257), int64(i%13*40+1)))
		}
		checkSharedStore(t, from, c, p, 257)
	}
	churn(newSharingPolicy(capBytes/2), 0)
	p := newSharingPolicy(capBytes / 2)
	c.SetInsertion(p)
	if !p.hm.shared || !p.hl.shared {
		t.Fatal("installed StoreSharer not bound to the cache's store")
	}
	churn(p, 3000)
	if p.hm.Len()+p.hl.Len() == 0 {
		t.Fatal("setup: no ghosts recorded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second SetInsertion did not panic")
			}
		}()
		c.SetInsertion(newSharingPolicy(capBytes / 2))
	}()
	if c.arena.nq != 3 {
		t.Errorf("store allocated %d queue ids, want 3: the residents' and two ghost lists'", c.arena.nq)
	}
	checkSharedStore(t, 6000, c, p, 257)
	churn(p, 6000)
}

// TestAddEvictedRejectsAForeignHandle: adoption takes only the detached
// victim that holds ev.Key.
func TestAddEvictedRejectsAForeignHandle(t *testing.T) {
	p := newSharingPolicy(1000)
	c := NewQueueCache("", 1000, p)
	c.Access(req(1, 1, 10))
	resident := c.index.Get(1)
	detached := c.arena.Alloc()
	c.arena.At(detached).Key = 2
	for name, ev := range map[string]EvictInfo{
		"resident handle":  {Key: 1, Size: 10, Handle: resident},
		"another key's":    {Key: 3, Size: 10, Handle: detached},
		"too big, foreign": {Key: 1, Size: 5000, Handle: resident},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddEvicted did not panic", name)
				}
			}()
			p.hm.AddEvicted(ev)
		}()
	}
}

// FuzzSharedStore drives a QueueCache whose policy keeps two ghost lists
// in the cache's own store through random Access/Remove tapes with mixed
// sizes — some above the ghost budget, some above the capacity — and
// checks the shared store's invariants after every operation.
func FuzzSharedStore(f *testing.F) {
	f.Add(int64(100), []byte{0, 10, 0, 1, 20, 1, 2, 30, 2, 0, 10, 0, 3, 5, 3})
	f.Add(int64(1000), []byte{5, 200, 0, 6, 255, 1, 7, 100, 2, 5, 200, 3, 8, 90, 0, 5, 1, 1})
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 3})
	// Six MRU and three LRU inserts of 41 bytes into 100: each ghost list
	// fills past its 50-byte budget unless adoption trims it.
	f.Add(int64(100), []byte{1, 10, 0, 2, 10, 0, 3, 10, 0, 4, 10, 0, 5, 10, 0, 6, 10, 0, 7, 10, 0, 8, 10, 0, 9, 10, 0})
	f.Fuzz(func(t *testing.T, capBytes int64, tape []byte) {
		if capBytes < 1 || capBytes > 1<<16 {
			t.Skip()
		}
		const universe = 32
		p := newSharingPolicy(capBytes / 2)
		c := NewQueueCache("", capBytes, p)
		for i := 0; i+2 < len(tape); i += 3 {
			key := uint64(tape[i] % universe)
			size := int64(tape[i+1])*4 + 1
			if tape[i+2]%4 == 3 {
				c.Remove(key)
			} else {
				c.Access(req(int64(i), key, size))
			}
			checkSharedStore(t, i/3, c, p, universe)
		}
	})
}
