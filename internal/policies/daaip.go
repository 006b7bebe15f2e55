package policies

import (
	"math/bits"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
)

// DAAIP is the deadblock-aware adaptive insertion policy (Mahto et al.).
// It predicts dead-on-arrival objects from per-class dead/live history and
// adapts the aggressiveness of LRU insertion: each size class keeps a
// saturating dead counter (incremented when a class member is evicted
// without reuse, decremented on a hit), and predicted-dead insertions go
// to the LRU position with an escape probability so mispredictions can
// recover — the adaptive component of the original proposal.
type DAAIP struct {
	counters [daaipClasses]int
	rng      *rand.Rand
	// escape is daaipEscape; a test sets it to 0.
	escape float64
}

const (
	// daaipClasses is the number of size classes.
	daaipClasses = 32
	// daaipDeadMax saturates the per-class counters.
	daaipDeadMax = 15
	// daaipThreshold is the dead count at which a class is predicted
	// dead.
	daaipThreshold = 12
	// daaipEscape is the probability a predicted-dead insertion still
	// goes to MRU.
	daaipEscape = 1.0 / 16
)

// NewDAAIP returns a DAAIP whose PRNG seed derives from seed.
func NewDAAIP(seed int64) *DAAIP {
	return &DAAIP{rng: rand.New(rand.NewSource(seed + 307)), escape: daaipEscape}
}

// Name implements cache.InsertionPolicy.
func (d *DAAIP) Name() string { return "DAAIP" }

func (d *DAAIP) class(size int64) int {
	c := bits.Len64(uint64(size))
	if c >= daaipClasses {
		c = daaipClasses - 1
	}
	return c
}

// OnAccess implements cache.InsertionPolicy.
func (d *DAAIP) OnAccess(req cache.Request, hit bool) {
	if hit {
		c := d.class(req.Size)
		if d.counters[c] > 0 {
			d.counters[c]--
		}
	}
}

// OnEvict implements cache.InsertionPolicy.
func (d *DAAIP) OnEvict(ev cache.EvictInfo) {
	if !ev.EverHit {
		c := d.class(ev.Size)
		if d.counters[c] < daaipDeadMax {
			d.counters[c]++
		}
	}
}

// ChooseInsert implements cache.InsertionPolicy.
func (d *DAAIP) ChooseInsert(req cache.Request) cache.Position {
	if d.counters[d.class(req.Size)] >= daaipThreshold && d.rng.Float64() >= d.escape {
		return cache.LRU
	}
	return cache.MRU
}

// ChoosePromote implements cache.InsertionPolicy (DAAIP promotes to MRU).
func (d *DAAIP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }
