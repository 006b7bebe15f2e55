package belady

import (
	"container/heap"
	"math"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/trace"
)

// infinity is the next-use distance of objects never requested again.
const infinity = math.MaxInt64

type bentry struct {
	key     uint64
	size    int64
	nextUse int64
	heapIdx int
}

// maxHeap orders entries by descending next use.
type maxHeap []*bentry

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i].nextUse > h[j].nextUse }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *maxHeap) Push(x any)        { e := x.(*bentry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *maxHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Cache replays exactly the trace it was built from.
type Cache struct {
	name  string
	cap   int64
	bytes int64
	next  []int
	i     int
	index map[uint64]*bentry
	h     maxHeap
}

var _ cache.Policy = (*Cache)(nil)

// New builds a Belady cache for tr. The returned policy must be driven
// with tr's requests in order.
func New(tr *trace.Trace, capBytes int64) *Cache {
	return &Cache{
		name:  "Belady",
		cap:   capBytes,
		next:  tr.NextOccurrences(),
		index: make(map[uint64]*bentry, 1<<12),
	}
}

// Name implements cache.Policy.
func (c *Cache) Name() string { return c.name }

// Capacity implements cache.Policy.
func (c *Cache) Capacity() int64 { return c.cap }

// Used implements cache.Policy.
func (c *Cache) Used() int64 { return c.bytes }

// nextUseAt converts the precomputed next index into a heap key.
func (c *Cache) nextUseAt(i int) int64 {
	if c.next[i] < 0 {
		return infinity
	}
	return int64(c.next[i])
}

// Access implements cache.Policy; requests must arrive in trace order.
func (c *Cache) Access(req cache.Request) bool {
	i := c.i
	c.i++
	if e, ok := c.index[req.Key]; ok {
		e.nextUse = c.nextUseAt(i)
		heap.Fix(&c.h, e.heapIdx)
		return true
	}
	if req.Size > c.cap || req.Size <= 0 {
		return false
	}
	nu := c.nextUseAt(i)
	if nu == infinity {
		// MIN never caches an object with no future use.
		return false
	}
	for c.bytes+req.Size > c.cap {
		victim := c.h[0]
		// Optimisation from the MIN construction: if the incoming
		// object's reuse is further away than the furthest cached
		// object's, caching it cannot help — bypass instead of evicting.
		if victim.nextUse <= nu {
			return false
		}
		heap.Pop(&c.h)
		delete(c.index, victim.key)
		c.bytes -= victim.size
	}
	e := &bentry{key: req.Key, size: req.Size, nextUse: nu}
	heap.Push(&c.h, e)
	c.index[req.Key] = e
	c.bytes += req.Size
	return false
}
