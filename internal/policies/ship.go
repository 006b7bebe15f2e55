package policies

import (
	"math/bits"

	"github.com/scip-cache/scip/internal/cache"
)

// SHiP is the signature-based hit predictor (Wu et al.). The original
// signature is the requesting PC; CDN requests carry no PC, so the
// signature is the object's size class (log2 bucket) combined with a few
// key bits — the stable per-population signal available in a CDN. A table
// of saturating counters tracks whether objects with a signature get
// re-referenced: an eviction without reuse decrements, a hit increments.
// Insertions whose signature counter is zero are predicted
// distant-reuse and placed at the LRU position.
type SHiP struct {
	table [1 << shipTableBits]int8
}

const (
	// shipTableBits sizes the signature history counter table (SHCT).
	shipTableBits = 14
	// shipCounterMax saturates the counters: a 3-bit counter.
	shipCounterMax = 7
)

// NewSHiP returns a SHiP predictor with a 2^14-entry SHCT.
func NewSHiP() *SHiP {
	s := &SHiP{}
	for i := range s.table {
		s.table[i] = 1 // weakly reusable prior
	}
	return s
}

// Name implements cache.InsertionPolicy.
func (s *SHiP) Name() string { return "SHiP" }

// signature folds the size class and key bits into a table index.
func (s *SHiP) signature(key uint64, size int64) uint32 {
	sizeClass := uint32(bits.Len64(uint64(size)))
	h := uint32(key*0x9E3779B97F4A7C15>>40) ^ sizeClass<<8 ^ sizeClass
	return h & (1<<shipTableBits - 1)
}

// OnAccess implements cache.InsertionPolicy: hits increment the
// signature's reuse counter.
func (s *SHiP) OnAccess(req cache.Request, hit bool) {
	if hit {
		idx := s.signature(req.Key, req.Size)
		if s.table[idx] < shipCounterMax {
			s.table[idx]++
		}
	}
}

// OnEvict implements cache.InsertionPolicy: evictions without reuse
// decrement the signature's counter.
func (s *SHiP) OnEvict(ev cache.EvictInfo) {
	if !ev.EverHit {
		idx := s.signature(ev.Key, ev.Size)
		if s.table[idx] > 0 {
			s.table[idx]--
		}
	}
}

// ChooseInsert implements cache.InsertionPolicy.
func (s *SHiP) ChooseInsert(req cache.Request) cache.Position {
	if s.table[s.signature(req.Key, req.Size)] == 0 {
		return cache.LRU
	}
	return cache.MRU
}

// ChoosePromote implements cache.InsertionPolicy (SHiP promotes to MRU).
func (s *SHiP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }
