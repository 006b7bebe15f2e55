package policies

import (
	"github.com/scip-cache/scip/internal/cache"
)

// ASCIP is the adaptive size-aware cache insertion policy (Wang et al.,
// ICCD 2022), the paper's closest prior work. It exploits the correlation
// between object size and zero reuse: missing objects at least as large
// as an adaptive threshold are inserted at the LRU position. The
// threshold adapts from two feedback signals:
//
//   - a ghost list of LRU-inserted evictions: a renewed miss on a ghost
//     entry means a size class was wrongly judged zero-reuse, so the
//     threshold moves up (fewer LRU insertions);
//   - evictions of MRU-inserted objects that were never hit (the ZRO
//     signal ASC-IP reads from the evicted object's hit token): the
//     threshold moves down toward that object's size, so similar objects
//     are demoted next time.
//
// Hit objects are always promoted to the MRU position — ASC-IP has no
// promotion policy, which is exactly the gap SCIP fills.
type ASCIP struct {
	// Up and Down are the multiplicative adaptation steps (defaults
	// 1.10 and 0.98).
	Up, Down float64

	threshold float64
	min, max  float64
	ghost     *cache.History
}

// NewASCIP returns an ASC-IP for a cache of capBytes capacity. The
// threshold starts at the cache capacity (no LRU insertions) and adapts
// downward as zero-reuse evictions accumulate.
func NewASCIP(capBytes int64) *ASCIP {
	return &ASCIP{
		Up:        1.10,
		Down:      0.98,
		threshold: float64(capBytes),
		min:       64,
		max:       float64(capBytes),
		ghost:     cache.NewHistory(capBytes / 2),
	}
}

// Name implements cache.InsertionPolicy.
func (a *ASCIP) Name() string { return "ASC-IP" }

// OnAccess implements cache.InsertionPolicy: a miss on a ghost-listed
// object means the threshold demoted a reusable size; raise it.
func (a *ASCIP) OnAccess(req cache.Request, hit bool) {
	if hit {
		return
	}
	if _, ok := a.ghost.Delete(req.Key); ok {
		a.threshold *= a.Up
		if a.threshold > a.max {
			a.threshold = a.max
		}
	}
}

// OnEvict implements cache.InsertionPolicy: a never-hit MRU insertion is
// a ZRO whose size should have been over the threshold; move the
// threshold toward it. LRU-inserted evictions are remembered in the ghost
// list so wrong demotions can be detected.
func (a *ASCIP) OnEvict(ev cache.EvictInfo) {
	if !ev.InsertedMRU {
		a.ghost.Add(ev.Key, ev.Size, ev.Residency)
		return
	}
	if !ev.EverHit {
		target := float64(ev.Size)
		if target < a.threshold {
			a.threshold *= a.Down
			if a.threshold < target {
				a.threshold = target
			}
			if a.threshold < a.min {
				a.threshold = a.min
			}
		}
	}
}

// ChooseInsert implements cache.InsertionPolicy.
func (a *ASCIP) ChooseInsert(req cache.Request) cache.Position {
	if float64(req.Size) >= a.threshold {
		return cache.LRU
	}
	return cache.MRU
}

// ChoosePromote implements cache.InsertionPolicy: all hit objects go to
// the MRU position.
func (a *ASCIP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }
