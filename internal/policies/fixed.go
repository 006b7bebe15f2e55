package policies

import (
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
)

// LIP is the LRU insertion policy: missing objects enter at the LRU
// position; hits promote to MRU.
type LIP struct{}

// Name implements cache.InsertionPolicy.
func (LIP) Name() string { return "LIP" }

// ChooseInsert implements cache.InsertionPolicy.
func (LIP) ChooseInsert(cache.Request) cache.Position { return cache.LRU }

// ChoosePromote implements cache.InsertionPolicy.
func (LIP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }

// OnEvict implements cache.InsertionPolicy.
func (LIP) OnEvict(cache.EvictInfo) {}

// OnAccess implements cache.InsertionPolicy.
func (LIP) OnAccess(cache.Request, bool) {}

// bipEpsilon is BIP's MRU-insertion probability, the classic 1/32
// bimodal throttle.
const bipEpsilon = 1.0 / 32

// BIP is the bimodal insertion policy (Qureshi et al.): LIP with a small
// probability bipEpsilon of inserting at MRU instead, so the cache can
// adapt to working-set changes.
type BIP struct {
	rng *rand.Rand
}

// NewBIP returns a BIP whose PRNG seed derives from seed.
func NewBIP(seed int64) *BIP { return &BIP{rng: rand.New(rand.NewSource(seed + 101))} }

// Name implements cache.InsertionPolicy.
func (b *BIP) Name() string { return "BIP" }

// ChooseInsert implements cache.InsertionPolicy.
func (b *BIP) ChooseInsert(cache.Request) cache.Position {
	if b.rng.Float64() < bipEpsilon {
		return cache.MRU
	}
	return cache.LRU
}

// ChoosePromote implements cache.InsertionPolicy.
func (b *BIP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }

// OnEvict implements cache.InsertionPolicy.
func (b *BIP) OnEvict(cache.EvictInfo) {}

// OnAccess implements cache.InsertionPolicy.
func (b *BIP) OnAccess(cache.Request, bool) {}

// NewCache pairs an insertion policy with the LRU victim-selection cache,
// the configuration every Figure-8 baseline uses.
func NewCache(name string, capBytes int64, ins cache.InsertionPolicy) *cache.QueueCache {
	return cache.NewQueueCache(name, capBytes, ins)
}
