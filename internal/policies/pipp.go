package policies

import (
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
)

// PIPP is promotion/insertion pseudo-partitioning (Xie & Loh). The
// original partitions a shared set-associative cache between cores by
// choosing a per-core insertion position and promoting hits by a single
// position with a fixed probability. For a single CDN request stream the
// partitioning degenerates to its two mechanisms: insertion at an
// intermediate queue position and probabilistic single-step promotion —
// which is precisely the behaviour the paper critiques ("its promotion
// policy moves the hit object one unit towards the MRU position",
// leaving P-ZROs resident for a long time in large CDN queues).
type PIPP struct {
	name string
	cap  int64
	q    *SegQueue
	rng  *rand.Rand
	// promoteProb is pippPromoteProb; tests set it to 0 or 1.
	promoteProb float64
}

const (
	// pippInsertSeg is the insertion segment in [0, NumSegments) from
	// the MRU end: mid-queue.
	pippInsertSeg = 4
	// pippPromoteProb is the probability a hit moves one step toward
	// MRU, the original's p_prom.
	pippPromoteProb = 0.75
)

var _ cache.Policy = (*PIPP)(nil)

// NewPIPP returns a PIPP cache of capBytes capacity.
func NewPIPP(capBytes int64, seed int64) *PIPP {
	return &PIPP{
		name:        "PIPP",
		cap:         capBytes,
		q:           NewSegQueue(),
		rng:         rand.New(rand.NewSource(seed + 401)),
		promoteProb: pippPromoteProb,
	}
}

// Name implements cache.Policy.
func (p *PIPP) Name() string { return p.name }

// Capacity implements cache.Policy.
func (p *PIPP) Capacity() int64 { return p.cap }

// Used implements cache.Policy.
func (p *PIPP) Used() int64 { return p.q.Bytes() }

// Access implements cache.Policy.
func (p *PIPP) Access(req cache.Request) bool {
	if h := p.q.Get(req.Key); h != cache.None {
		e := p.q.At(h)
		e.Hits++
		if p.rng.Float64() < p.promoteProb {
			p.q.StepUp(h)
		}
		return true
	}
	if req.Size > p.cap || req.Size <= 0 {
		return false
	}
	for p.q.Bytes()+req.Size > p.cap {
		p.q.EvictBack()
	}
	p.q.InsertAt(req.Key, req.Size, pippInsertSeg)
	return false
}
