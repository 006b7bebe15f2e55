package replacement

import (
	"container/heap"

	"github.com/scip-cache/scip/internal/cache"
)

// gdsfEntry is a heap item with priority H = L + freq × cost / size.
type gdsfEntry struct {
	key      uint64
	size     int64
	freq     float64
	priority float64
	heapIdx  int
}

type gdsfHeap []*gdsfEntry

func (h gdsfHeap) Len() int           { return len(h) }
func (h gdsfHeap) Less(i, j int) bool { return h[i].priority < h[j].priority }
func (h gdsfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *gdsfHeap) Push(x any)        { e := x.(*gdsfEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *gdsfHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// GDSF is GreedyDual-Size-Frequency (Cherkasova & Ciardo): each object
// carries priority H = L + frequency × cost / size with cost 1 (hit-ratio
// objective); the lowest-priority object is evicted and its H becomes the
// global inflation value L, which ages the rest of the cache without
// touching every entry.
type GDSF struct {
	name  string
	cap   int64
	used  int64
	l     float64
	h     gdsfHeap
	index map[uint64]*gdsfEntry
}

var _ cache.Policy = (*GDSF)(nil)

// NewGDSF returns a GDSF cache.
func NewGDSF(capBytes int64) *GDSF {
	return &GDSF{name: "GDSF", cap: capBytes, index: make(map[uint64]*gdsfEntry)}
}

// Name implements cache.Policy.
func (g *GDSF) Name() string { return g.name }

// Capacity implements cache.Policy.
func (g *GDSF) Capacity() int64 { return g.cap }

// Used implements cache.Policy.
func (g *GDSF) Used() int64 { return g.used }

// Access implements cache.Policy.
func (g *GDSF) Access(req cache.Request) bool {
	if e, ok := g.index[req.Key]; ok {
		e.freq++
		e.priority = g.l + e.freq/float64(e.size)
		heap.Fix(&g.h, e.heapIdx)
		return true
	}
	if req.Size > g.cap || req.Size <= 0 {
		return false
	}
	for g.used+req.Size > g.cap {
		victim := heap.Pop(&g.h).(*gdsfEntry)
		delete(g.index, victim.key)
		g.used -= victim.size
		g.l = victim.priority
	}
	e := &gdsfEntry{key: req.Key, size: req.Size, freq: 1}
	e.priority = g.l + e.freq/float64(e.size)
	heap.Push(&g.h, e)
	g.index[req.Key] = e
	g.used += req.Size
	return false
}
