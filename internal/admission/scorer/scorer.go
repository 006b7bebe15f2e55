package scorer

import (
	"math"

	"github.com/scip-cache/scip/internal/admission"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/zro"
)

// Scorer is one independent admission signal producing scores in [0, 1]:
// 1 means "this object deserves cache space" (admit / place at MRU),
// 0 means "it does not" (reject / place at LRU).
type Scorer interface {
	// Name returns the spec key for this scorer ("zro", "size", ...).
	Name() string
	// InsertScore returns the opinion on a missing object. forced=true
	// demands an unconditional decision (score exactly 0 or 1, no
	// randomness consumed). It is called exactly once per miss and may
	// consume one-shot per-request state.
	InsertScore(req cache.Request) (score float64, forced bool)
	// PromoteScore is the promotion-context counterpart, called exactly
	// once per hit (placement mode only).
	PromoteScore(req cache.Request) (score float64, forced bool)
	// Score returns the current opinion of req without consuming any
	// per-request state; the weight tuner uses it to attribute loss on
	// resolved evidence events.
	Score(req cache.Request) float64
	// OnAccess, OnEvict and OnResidentHit forward the hosting cache's
	// learning events.
	OnAccess(req cache.Request, hit bool)
	OnEvict(ev cache.EvictInfo)
	OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int)
}

// uniformSource is implemented by scorers that own a PRNG the pipeline
// should draw its decisions from (the zro scorer: byte-identity with the
// monolith requires sharing SCIP's stream).
type uniformSource interface {
	Uniform() float64
}

// baseScorer provides no-op event hooks for stateless scorers.
type baseScorer struct{}

func (baseScorer) OnAccess(cache.Request, bool)                            {}
func (baseScorer) OnEvict(cache.EvictInfo)                                 {}
func (baseScorer) OnResidentHit(cache.Request, bool, cache.Residency, int) {}

// ---------------------------------------------------------------------------
// zro: SCIP's learned bimodal probability.

// zroScorer wraps a full SCIP instance: its score is the learned
// per-size-class MRU weight, its forced results are the §3.2 per-object
// adjustments, and all learning events are forwarded so the embedded
// monolith trains exactly as it would standalone.
type zroScorer struct {
	s *core.SCIP
}

func newZROScorer(capBytes int64, seed int64, interval int, extra []core.Option) *zroScorer {
	opts := append([]core.Option{core.WithSeed(seed), core.WithInterval(interval)}, extra...)
	return &zroScorer{s: core.New(capBytes, opts...)}
}

func (z *zroScorer) Name() string { return "zro" }

func (z *zroScorer) InsertScore(req cache.Request) (float64, bool)  { return z.s.InsertScore(req) }
func (z *zroScorer) PromoteScore(req cache.Request) (float64, bool) { return z.s.PromoteScore(req) }
func (z *zroScorer) Score(req cache.Request) float64                { return z.s.ClassMRUWeight(req.Size) }
func (z *zroScorer) Uniform() float64                               { return z.s.Uniform() }

func (z *zroScorer) OnAccess(req cache.Request, hit bool) { z.s.OnAccess(req, hit) }
func (z *zroScorer) OnEvict(ev cache.EvictInfo)           { z.s.OnEvict(ev) }
func (z *zroScorer) OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int) {
	z.s.OnResidentHit(req, insertedMRU, res, hits)
}

// ---------------------------------------------------------------------------
// size: AdaptSize's admission probability.

// sizeScorer scores e^{−size/c}: small objects near 1, large objects
// near 0 — AdaptSize's admission probability used as a mixable signal.
// c is fixed at construction; adaptivity comes from the mixer weight,
// not from hill-climbing c.
type sizeScorer struct {
	baseScorer
	c float64
}

func (s *sizeScorer) Name() string { return "size" }

func (s *sizeScorer) score(size int64) float64 { return math.Exp(-float64(size) / s.c) }

func (s *sizeScorer) InsertScore(req cache.Request) (float64, bool)  { return s.score(req.Size), false }
func (s *sizeScorer) PromoteScore(req cache.Request) (float64, bool) { return s.score(req.Size), false }
func (s *sizeScorer) Score(req cache.Request) float64                { return s.score(req.Size) }

// ---------------------------------------------------------------------------
// freq: the TinyLFU count-min sketch.

// freqScorer counts every access in an aging count-min sketch and scores
// the normalised estimate — TinyLFU's duel signal recast as a [0, 1]
// opinion.
type freqScorer struct {
	baseScorer
	sk *admission.Sketch
}

func newFreqScorer(capBytes int64) *freqScorer {
	counters := int(capBytes / 4096)
	if counters < 1024 {
		counters = 1024
	}
	return &freqScorer{sk: admission.NewSketch(counters)}
}

func (f *freqScorer) Name() string { return "freq" }

func (f *freqScorer) score(key uint64) float64 { return float64(f.sk.Estimate(key)) / 15 }

func (f *freqScorer) InsertScore(req cache.Request) (float64, bool)  { return f.score(req.Key), false }
func (f *freqScorer) PromoteScore(req cache.Request) (float64, bool) { return f.score(req.Key), false }
func (f *freqScorer) Score(req cache.Request) float64                { return f.score(req.Key) }

func (f *freqScorer) OnAccess(req cache.Request, hit bool) { f.sk.Add(req.Key) }

// ---------------------------------------------------------------------------
// ghost: History re-reference.

// Ghost scores: a missing object found in the ghost list of recent
// evictions was dropped too early — full confidence. A cold miss scores
// low; a resident hit is neutral (the ghost has no opinion on objects it
// has never seen evicted).
const (
	ghostHitScore  = 1.0
	ghostColdScore = 0.25
	ghostNeutral   = 0.5
)

// ghostScorer remembers recently evicted keys in a cache.History and
// scores re-referenced ones as certain re-admissions — 2Q's A1out rule
// as a soft signal. The ghost record is consumed on the miss that finds
// it, like every ghost list in the repository.
type ghostScorer struct {
	h       *cache.History
	pending bool
}

func newGhostScorer(capBytes int64, frac float64) *ghostScorer {
	return &ghostScorer{h: cache.NewHistory(int64(frac * float64(capBytes)))}
}

func (g *ghostScorer) Name() string { return "ghost" }

func (g *ghostScorer) OnAccess(req cache.Request, hit bool) {
	if hit {
		g.pending = false
		return
	}
	_, g.pending = g.h.Delete(req.Key)
}

func (g *ghostScorer) OnEvict(ev cache.EvictInfo) { g.h.Add(ev.Key, ev.Size, ev.Residency) }

func (g *ghostScorer) InsertScore(req cache.Request) (float64, bool) {
	if g.pending {
		g.pending = false
		return ghostHitScore, false
	}
	return ghostColdScore, false
}

func (g *ghostScorer) PromoteScore(req cache.Request) (float64, bool) { return ghostNeutral, false }

func (g *ghostScorer) Score(req cache.Request) float64 {
	if g.h.Contains(req.Key) {
		return ghostHitScore
	}
	return ghostColdScore
}

func (g *ghostScorer) OnResidentHit(cache.Request, bool, cache.Residency, int) {}

// ---------------------------------------------------------------------------
// reuse: online per-size-class ZRO estimate.

// reuseScorer scores the zro.OnlineEstimator's reuse likelihood for the
// object's size class, learned from the hosting cache's own eviction
// outcomes — a drift-tracking statistical cousin of the zro scorer's
// learned weights.
type reuseScorer struct {
	baseScorer
	est *zro.OnlineEstimator
}

func newReuseScorer() *reuseScorer { return &reuseScorer{est: zro.NewOnlineEstimator()} }

func (r *reuseScorer) Name() string { return "reuse" }

func (r *reuseScorer) InsertScore(req cache.Request) (float64, bool) {
	return r.est.Likelihood(req.Size), false
}
func (r *reuseScorer) PromoteScore(req cache.Request) (float64, bool) {
	return r.est.Likelihood(req.Size), false
}
func (r *reuseScorer) Score(req cache.Request) float64 { return r.est.Likelihood(req.Size) }

func (r *reuseScorer) OnEvict(ev cache.EvictInfo) { r.est.Observe(ev.Size, ev.EverHit) }
