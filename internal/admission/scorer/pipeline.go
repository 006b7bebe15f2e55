package scorer

import (
	"errors"
	"math/rand"
	"strings"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/mab"
)

// Config selects and weighs the scorers of a Pipeline. Scorers with a
// positive weight are built, in the fixed canonical order zro, size,
// freq, ghost, reuse (construction order never depends on spec order, so
// a given config is a pure function of its values).
type Config struct {
	// ZRO..Reuse are the initial mixer weights; <= 0 excludes the scorer.
	ZRO, Size, Freq, Ghost, Reuse float64

	// Name overrides the pipeline's display name (default: "MIX(...)"
	// listing the active scorers). The monolith-equivalence configs use
	// it to reproduce the monolith's table rows byte-identically.
	Name string
	// Seed drives the pipeline PRNG and the embedded SCIP's.
	Seed int64
	// Interval is the tuning window in requests (default
	// core.DefaultInterval); it is also the embedded SCIP's interval.
	Interval int
	// Tune enables online mixer-weight tuning on resolved evidence
	// events. With a single scorer tuning is provably inert (the lone
	// weight renormalises to exactly 1), so equivalence configs may
	// leave it on.
	Tune bool
	// C is the size scorer's parameter (default capBytes/100, AdaptSize's
	// starting point).
	C float64
	// GhostFrac sizes the ghost scorer's history as a fraction of
	// capacity (default 0.5, the paper's history budget).
	GhostFrac float64
	// ZROOpts are extra options for the embedded SCIP (e.g.
	// core.ForEnhancement when hosted inside LRU-K/LRB), applied after
	// the seed and interval.
	ZROOpts []core.Option
}

// Pipeline combines independent admission scorers with a weighted mixer
// into a cache.InsertionPolicy. The mixed score is the MRU/admit
// probability; mab.MultiExpert holds the mixer weights and
// mab.AdaptiveRate supplies the tuning step, the same machinery SCIP
// uses for its single bimodal probability. Not safe for concurrent use.
type Pipeline struct {
	name    string
	scorers []Scorer
	mix     *mab.MultiExpert
	rate    *mab.AdaptiveRate
	tune    bool

	uniform  func() float64
	interval int

	reqs, hits int
}

var (
	_ cache.InsertionPolicy   = (*Pipeline)(nil)
	_ cache.ResidencyObserver = (*Pipeline)(nil)
)

// selectsScorer reports whether cfg gives at least one scorer a
// positive weight.
func (cfg Config) selectsScorer() bool {
	return cfg.ZRO > 0 || cfg.Size > 0 || cfg.Freq > 0 || cfg.Ghost > 0 || cfg.Reuse > 0
}

// NewPipeline builds the configured scorers for a cache of capBytes.
func NewPipeline(capBytes int64, cfg Config) (*Pipeline, error) {
	if !cfg.selectsScorer() {
		return nil, errors.New("scorer: config selects no scorers")
	}
	return newPipeline(capBytes, cfg), nil
}

// newPipeline is NewPipeline for a cfg that selects at least one scorer.
func newPipeline(capBytes int64, cfg Config) *Pipeline {
	if cfg.Interval <= 0 {
		cfg.Interval = core.DefaultInterval
	}
	if cfg.C <= 0 {
		cfg.C = float64(capBytes) / 100
	}
	if cfg.GhostFrac <= 0 {
		cfg.GhostFrac = 0.5
	}
	p := &Pipeline{
		name:     cfg.Name,
		tune:     cfg.Tune,
		interval: cfg.Interval,
	}
	var weights []float64
	add := func(s Scorer, w float64) {
		p.scorers = append(p.scorers, s)
		weights = append(weights, w)
	}
	if cfg.ZRO > 0 {
		add(newZROScorer(capBytes, cfg.Seed, cfg.Interval, cfg.ZROOpts), cfg.ZRO)
	}
	if cfg.Size > 0 {
		add(&sizeScorer{c: cfg.C}, cfg.Size)
	}
	if cfg.Freq > 0 {
		add(newFreqScorer(capBytes), cfg.Freq)
	}
	if cfg.Ghost > 0 {
		add(newGhostScorer(capBytes, cfg.GhostFrac), cfg.Ghost)
	}
	if cfg.Reuse > 0 {
		add(newReuseScorer(), cfg.Reuse)
	}
	p.mix = mab.NewMultiExpert(weights)
	// The tuner's AdaptiveRate gets no PRNG: its restarts fall back to
	// the deterministic midpoint, so tuning never consumes randomness
	// and cannot perturb a shared decision stream.
	p.rate = mab.NewAdaptiveRate(nil)
	// The decision draw comes from the first scorer that owns a PRNG
	// (the zro scorer), so a zro-only mix consumes SCIP's exact stream;
	// otherwise from the pipeline's own seeded PRNG.
	p.uniform = rand.New(rand.NewSource(cfg.Seed)).Float64
	for _, s := range p.scorers {
		if u, ok := s.(uniformSource); ok {
			p.uniform = u.Uniform
			break
		}
	}
	if p.name == "" {
		names := make([]string, len(p.scorers))
		for i, s := range p.scorers {
			names[i] = s.Name()
		}
		p.name = "MIX(" + strings.Join(names, "+") + ")"
	}
	return p
}

// Name implements cache.InsertionPolicy.
func (p *Pipeline) Name() string { return p.name }

// Weights exposes the live mixer weights (canonical scorer order) for
// tests and diagnostics; callers must not mutate the slice.
func (p *Pipeline) Weights() []float64 { return p.mix.Weights() }

// Scorers lists the active scorer names in mixer order.
func (p *Pipeline) Scorers() []string {
	names := make([]string, len(p.scorers))
	for i, s := range p.scorers {
		names[i] = s.Name()
	}
	return names
}

// insertMix gathers every scorer's insertion opinion exactly once and
// returns the weighted mix. When one or more scorers force the decision,
// the weighted mean of the forcing scorers' scores is returned with
// forced=true and the caller must not consume randomness.
func (p *Pipeline) insertMix(req cache.Request) (score float64, forced bool) {
	var mix, fsum, fw float64
	for i, s := range p.scorers {
		sc, f := s.InsertScore(req)
		w := p.mix.Weight(i)
		mix += w * sc
		if f {
			forced = true
			fsum += w * sc
			fw += w
		}
	}
	if forced {
		if fw > 0 {
			return fsum / fw, true
		}
		return 1, true
	}
	return mix, false
}

func (p *Pipeline) promoteMix(req cache.Request) (score float64, forced bool) {
	var mix, fsum, fw float64
	for i, s := range p.scorers {
		sc, f := s.PromoteScore(req)
		w := p.mix.Weight(i)
		mix += w * sc
		if f {
			forced = true
			fsum += w * sc
			fw += w
		}
	}
	if forced {
		if fw > 0 {
			return fsum / fw, true
		}
		return 1, true
	}
	return mix, false
}

// ChooseInsert implements cache.InsertionPolicy: the mixed score is the
// MRU probability, decided by one uniform draw (score > u, the
// TwoExpert.Select predicate). Forced decisions consume no randomness.
func (p *Pipeline) ChooseInsert(req cache.Request) cache.Position {
	score, forced := p.insertMix(req)
	if forced {
		if score >= 0.5 {
			return cache.MRU
		}
		return cache.LRU
	}
	if score > p.uniform() {
		return cache.MRU
	}
	return cache.LRU
}

// ChoosePromote implements cache.InsertionPolicy for the promotion
// context.
func (p *Pipeline) ChoosePromote(req cache.Request) cache.Position {
	score, forced := p.promoteMix(req)
	if forced {
		if score >= 0.5 {
			return cache.MRU
		}
		return cache.LRU
	}
	if score > p.uniform() {
		return cache.MRU
	}
	return cache.LRU
}

// OnAccess forwards the request to every scorer and maintains the
// interval hit-rate window feeding the tuning step size.
func (p *Pipeline) OnAccess(req cache.Request, hit bool) {
	p.reqs++
	if hit {
		p.hits++
	}
	for _, s := range p.scorers {
		s.OnAccess(req, hit)
	}
	if p.reqs%p.interval == 0 {
		p.rate.Update(float64(p.hits) / float64(p.interval))
		p.hits = 0
	}
}

// OnEvict applies the negative tuning evidence — a never-hit eviction
// resolves the admission question as y=0, so each scorer's weight decays
// by λ × its (side-effect-free) score for the victim — then forwards the
// eviction to every scorer. With one scorer the decay renormalises back
// to exactly 1: tuning is inert and equivalence configs keep it on.
func (p *Pipeline) OnEvict(ev cache.EvictInfo) {
	if p.tune && !ev.EverHit {
		req := cache.Request{Key: ev.Key, Size: ev.Size}
		for i, s := range p.scorers {
			if loss := s.Score(req); loss > 0 {
				p.mix.Decay(i, p.rate.Lambda*loss)
			}
		}
	}
	for _, s := range p.scorers {
		s.OnEvict(ev)
	}
}

// OnResidentHit applies the positive tuning evidence — the first hit of
// a residency resolves the admission question as y=1, decaying each
// scorer by λ × (1 − score) — then forwards the event.
func (p *Pipeline) OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int) {
	if p.tune && hits == 1 {
		for i, s := range p.scorers {
			if loss := 1 - s.Score(req); loss > 0 {
				p.mix.Decay(i, p.rate.Lambda*loss)
			}
		}
	}
	for _, s := range p.scorers {
		s.OnResidentHit(req, insertedMRU, res, hits)
	}
}
