package replacement

import (
	"container/heap"
	"math"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/mab"
)

// lecarEntry lives simultaneously in the recency queue and the frequency
// heap.
type lecarEntry struct {
	key     uint64
	size    int64
	freq    int
	lastAcc int64
	heapIdx int
	qnode   cache.Handle
}

type lfuHeap []*lecarEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].lastAcc < h[j].lastAcc
}
func (h lfuHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *lfuHeap) Push(x any)   { e := x.(*lecarEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *lfuHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// LeCaR (Vietri et al., HotStorage'18) drives eviction with two experts —
// LRU and LFU — whose weights are updated by regret: when a missing
// object is found in an expert's ghost list, that expert's past eviction
// was a mistake and its weight decays multiplicatively. CACHEUS
// (Rodriguez et al., FAST'21) builds on the same frame with an adaptive
// learning rate, the Algorithm-2-style controller shared with SCIP; that
// variant is the only one built here (NewCACHEUS).
type LeCaR struct {
	cap      int64
	seq      int64
	arena    cache.Arena
	q        cache.Queue
	h        lfuHeap
	index    map[uint64]*lecarEntry
	bytes    int64
	wLRU     float64
	ghostLRU *cache.History
	ghostLFU *cache.History
	rng      *rand.Rand

	rate     *mab.AdaptiveRate
	hits     int
	reqs     int
	interval int
}

var _ cache.Policy = (*LeCaR)(nil)

// NewCACHEUS returns the CACHEUS variant: LeCaR's expert frame with an
// adaptive learning rate driven by the interval hit rate.
func NewCACHEUS(capBytes int64, seed int64) *LeCaR {
	l := &LeCaR{
		cap:      capBytes,
		index:    make(map[uint64]*lecarEntry),
		wLRU:     0.5,
		ghostLRU: cache.NewHistory(capBytes / 2),
		ghostLFU: cache.NewHistory(capBytes / 2),
		rng:      rand.New(rand.NewSource(seed + 809)),
		interval: 1 << 14,
	}
	l.q = l.arena.NewQueue()
	l.rate = mab.NewAdaptiveRate(l.rng.Float64)
	return l
}

// Name implements cache.Policy.
func (l *LeCaR) Name() string { return "CACHEUS" }

// Capacity implements cache.Policy.
func (l *LeCaR) Capacity() int64 { return l.cap }

// Used implements cache.Policy.
func (l *LeCaR) Used() int64 { return l.bytes }

// Access implements cache.Policy.
func (l *LeCaR) Access(req cache.Request) bool {
	l.seq++
	l.reqs++
	if l.reqs%l.interval == 0 {
		l.rate.Update(float64(l.hits) / float64(l.interval))
		l.hits = 0
	}
	if e, ok := l.index[req.Key]; ok {
		l.hits++
		e.freq++
		e.lastAcc = l.seq
		heap.Fix(&l.h, e.heapIdx)
		l.q.MoveToFront(e.qnode)
		return true
	}
	if req.Size > l.cap || req.Size <= 0 {
		return false
	}
	// Regret updates from the ghost lists.
	if _, ok := l.ghostLRU.Delete(req.Key); ok {
		l.decayLRU() // the LRU expert evicted something still needed
	} else if _, ok := l.ghostLFU.Delete(req.Key); ok {
		l.decayLFU()
	}
	for l.bytes+req.Size > l.cap {
		l.evictOne()
	}
	qh := l.arena.Alloc()
	qe := l.arena.At(qh)
	qe.Key = req.Key
	qe.Size = req.Size
	e := &lecarEntry{key: req.Key, size: req.Size, freq: 1, lastAcc: l.seq, qnode: qh}
	l.q.PushFront(qh)
	heap.Push(&l.h, e)
	l.index[req.Key] = e
	l.bytes += req.Size
	return false
}

func (l *LeCaR) decayLRU() {
	w := l.wLRU * math.Exp(-l.rate.Lambda)
	l.wLRU = w / (w + (1 - l.wLRU))
}

func (l *LeCaR) decayLFU() {
	f := (1 - l.wLRU) * math.Exp(-l.rate.Lambda)
	l.wLRU = l.wLRU / (l.wLRU + f)
}

func (l *LeCaR) evictOne() {
	var victim *lecarEntry
	useLRU := l.rng.Float64() < l.wLRU
	if useLRU {
		victim = l.index[l.arena.At(l.q.Back()).Key]
	} else {
		victim = l.h[0]
	}
	l.q.Remove(victim.qnode)
	l.arena.Free(victim.qnode)
	heap.Remove(&l.h, victim.heapIdx)
	delete(l.index, victim.key)
	l.bytes -= victim.size
	if useLRU {
		l.ghostLRU.Add(victim.key, victim.size, cache.ResInserted)
	} else {
		l.ghostLFU.Add(victim.key, victim.size, cache.ResInserted)
	}
}
