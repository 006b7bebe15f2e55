package scorer

import "github.com/scip-cache/scip/internal/cache"

// FilterCache is the pipeline's admission-filter mode: a plain-LRU inner
// cache whose misses are gated on the mixed insertion score — the shape
// of AdaptSize and the TinyLFU duel, with the signal swapped for the
// composable mix. theta >= 0 admits deterministically (score >= theta);
// theta < 0 admits probabilistically (score >= u, one uniform draw per
// miss, AdaptSize's predicate). Promotion inside the inner cache is
// plain LRU; the promotion-context scores are unused in this mode.
type FilterCache struct {
	name  string
	inner *cache.QueueCache
	p     *Pipeline
	theta float64
}

var (
	_ cache.Policy          = (*FilterCache)(nil)
	_ cache.Remover         = (*FilterCache)(nil)
	_ cache.EvictionCounter = (*FilterCache)(nil)
)

// newFilter wraps pipeline p in a filter-mode cache named name.
func newFilter(name string, capBytes int64, theta float64, p *Pipeline) *FilterCache {
	f := &FilterCache{name: name, inner: cache.NewLRU(capBytes), p: p, theta: theta}
	// The inner cache is plain LRU, so the pipeline is not its insertion
	// policy; evictions reach the scorers through the hook instead.
	f.inner.EvictHook = func(e *cache.Entry) {
		p.OnEvict(cache.EvictInfo{
			Key:         e.Key,
			Size:        e.Size,
			InsertedMRU: e.InsertedMRU,
			EverHit:     e.Hits > 0,
			Residency:   e.Residency,
		})
	}
	return f
}

// Name implements cache.Policy.
func (f *FilterCache) Name() string { return f.name }

// Capacity implements cache.Policy.
func (f *FilterCache) Capacity() int64 { return f.inner.Capacity() }

// Used implements cache.Policy.
func (f *FilterCache) Used() int64 { return f.inner.Used() }

// Evictions implements cache.EvictionCounter.
func (f *FilterCache) Evictions() int64 { return f.inner.Evictions() }

// Pipeline exposes the scorer pipeline for tests and diagnostics.
func (f *FilterCache) Pipeline() *Pipeline { return f.p }

// Access implements cache.Policy: hits pass straight through to the
// inner LRU; misses are admitted only when the mixed score clears the
// threshold (or the uniform draw). The event order matches QueueCache:
// OnAccess first, then the resident-hit report.
func (f *FilterCache) Access(req cache.Request) bool {
	hit := f.inner.Contains(req.Key)
	f.p.OnAccess(req, hit)
	if hit {
		if e := f.inner.Entry(req.Key); e != nil {
			f.p.OnResidentHit(req, e.InsertedMRU, e.Residency, int(e.Hits)+1)
		}
		f.inner.Access(req)
		return true
	}
	score, forced := f.p.insertMix(req)
	admit := false
	switch {
	case forced:
		admit = score >= 0.5
	case f.theta >= 0:
		admit = score >= f.theta
	default:
		admit = score >= f.p.uniform()
	}
	if admit {
		f.inner.Access(req)
	}
	return false
}

// Remove implements cache.Remover by delegating to the inner LRU: no
// eviction counter, no EvictHook, no scorer signal — invalidation
// teaches nothing.
func (f *FilterCache) Remove(key uint64) bool { return f.inner.Remove(key) }
