//go:build scipdebug

package cache

import "testing"

// TestIndexGuards: under scipdebug an index hit must lead to a live entry
// that holds the probed key and sits in one of the store's queues, on
// both the cache's lookup and a shared ghost list's.
func TestIndexGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	newCache := func() (*QueueCache, *sharingPolicy) {
		p := newSharingPolicy(500)
		c := NewQueueCache("", 1000, p)
		c.Access(req(1, 1, 10))
		return c, p
	}

	c, p := newCache()
	detached := c.arena.Alloc()
	c.arena.At(detached).Key = 7
	c.index.Put(7, detached)
	mustPanic("Access of a detached entry", func() { c.Access(req(2, 7, 10)) })
	mustPanic("ghost lookup of a detached entry", func() { p.hm.Contains(7) })

	c, p = newCache()
	c.index.Put(8, c.index.Get(1))
	mustPanic("Contains of an entry holding another key", func() { c.Contains(8) })
	mustPanic("ghost lookup of an entry holding another key", func() { p.hl.Delete(8) })

	c, _ = newCache()
	freed := c.arena.Alloc()
	c.arena.At(freed).Key = 9
	c.arena.Free(freed)
	c.index.Put(9, freed)
	mustPanic("Remove of a freed entry", func() { c.Remove(9) })
}
