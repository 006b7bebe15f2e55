package core

import (
	"math/bits"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/mab"
)

// DefaultInterval is the learning-rate update interval i, in requests.
const DefaultInterval = 50_000

// DefaultEvictGain scales the ZRO-waste eviction evidence relative to the
// ghost-hit evidence (see OnEvict).
const DefaultEvictGain = 1.0

// DefaultHitGain scales the residency-validated hit evidence (see
// OnResidentHit).
const DefaultHitGain = 0.1

// DefaultPromoteEvictGain and DefaultPromoteHitGain are the promotion
// context's evidence gains. Wasted promotions are discounted harder and
// validated promotions count more than their insertion-context
// counterparts because a wrong demotion costs a guaranteed extra miss
// while a wasted promotion only costs residency space.
const (
	DefaultPromoteEvictGain = 0.1
	DefaultPromoteHitGain   = 0.2
)

// DefaultDuelGain scales the dueling-monitor drift applied to the
// insertion weights each dueling window.
const DefaultDuelGain = 0.5

// numSizeClasses is the contextual granularity of the weight pairs: the
// bandit learns one ω pair per log2 object-size class (plus the global
// pair it falls back to until a class has enough evidence). Size is the
// strongest per-object signal a CDN insertion policy can condition on —
// it is the entire basis of ASC-IP — and conditioning the MAB on it lets
// SCIP subsume ASC-IP's threshold behaviour instead of losing to it.
const numSizeClasses = 16

// classMinObs is the evidence count before a class pair overrides the
// global pair.
const classMinObs = 32

// sizeClass buckets an object size.
func sizeClass(size int64) int {
	c := bits.Len64(uint64(size)) - 5 // sizes < 32B share class 0
	if c < 0 {
		c = 0
	}
	if c >= numSizeClasses {
		c = numSizeClasses - 1
	}
	return c
}

// weightSet is a global ω pair plus per-size-class pairs that take over
// once a class has accumulated enough evidence.
type weightSet struct {
	global *mab.TwoExpert
	class  [numSizeClasses]*mab.TwoExpert
	seen   [numSizeClasses]int
}

func newWeightSet(w0 float64) *weightSet {
	ws := &weightSet{global: mab.NewTwoExpert(w0)}
	for i := range ws.class {
		ws.class[i] = mab.NewTwoExpert(w0)
	}
	return ws
}

// decay applies evidence to both the size class and the global prior.
// The per-event decay is clamped at 3 (e^-3 ≈ 0.05) so a single
// size-amplified event cannot pin a class beyond recovery.
func (ws *weightSet) decay(size int64, arm int, lambda float64) {
	if lambda > 3 {
		lambda = 3
	}
	c := sizeClass(size)
	ws.seen[c]++
	ws.class[c].Decay(arm, lambda)
	ws.global.Decay(arm, lambda)
}

// pick returns the pair that should drive a decision for size.
func (ws *weightSet) pick(size int64) *mab.TwoExpert {
	c := sizeClass(size)
	if ws.seen[c] >= classMinObs {
		return ws.class[c]
	}
	return ws.global
}

// Option configures a SCIP instance.
type Option func(*SCIP)

// WithSeed fixes the PRNG used for bimodal selection and random restarts,
// so two instances built with the same options replay bit-for-bit.
func WithSeed(seed int64) Option {
	return func(s *SCIP) { s.seed = seed }
}

// WithInterval sets the learning-rate update interval i (requests).
func WithInterval(i int) Option {
	return func(s *SCIP) {
		if i > 0 {
			s.interval = i
		}
	}
}

// WithHistoryFraction sizes each history list as frac × the cache
// capacity. The paper uses 0.5 ("logically, the size of each list is half
// of the real cache").
func WithHistoryFraction(frac float64) Option {
	return func(s *SCIP) { s.historyFrac = frac }
}

// WithInitialMRUWeight sets the starting ω_m for both contexts
// (default 0.9: optimistic MRU, so the learning transient does not thrash
// workloads where plain LRU is already near-optimal).
func WithInitialMRUWeight(w float64) Option {
	return func(s *SCIP) { s.initW = w }
}

// WithPromoteMRU disables the learned promotion path: hit objects are
// always re-inserted at the MRU position. This turns SCIP into SCI
// (Algorithm 3), the paper's ablation.
func WithPromoteMRU() Option {
	return func(s *SCIP) {
		s.promoteMRU = true
		s.name = "SCI"
	}
}

// WithEvictGain scales the ZRO-waste evidence: an eviction of an object
// that entered at MRU and was never hit decays that context's ω_m by
// gain × λ. 0 disables the signal (pure Algorithm-1 ghost feedback).
func WithEvictGain(gain float64) Option {
	return func(s *SCIP) { s.evictGain = gain }
}

// ForceMode selects how much of the per-object §3.2 adjustment applies.
type ForceMode int

const (
	// ForceNone applies no per-object adjustment; insertion always
	// follows the global weights (the literal Algorithm 1).
	ForceNone ForceMode = iota
	// ForceRescue re-protects at MRU an object found in H_l (it was
	// demoted or LRU-inserted and proved reusable), but lets H_m-found
	// objects follow the global weights. This is the default: forcing
	// suspected ZROs to LRU would also kill objects with a short second
	// reuse (e.g. CDN-W's echoes) that promotion handles better.
	ForceRescue
	// ForceBoth additionally forces H_m-found objects to the LRU
	// position.
	ForceBoth
)

// WithForceMode selects the per-object §3.2 adjustment behaviour.
func WithForceMode(m ForceMode) Option {
	return func(s *SCIP) { s.force = m }
}

// WithHitGain scales the residency-validated evidence: the first hit of a
// residency decays that context's ω_l by gain × λ (the placement that kept
// the object resident was right). 0 disables the signal.
func WithHitGain(gain float64) Option {
	return func(s *SCIP) { s.hitGain = gain }
}

// ForEnhancement configures SCIP as an enhancement component inside a
// host replacement algorithm that already performs informed victim
// selection (LRU-K, LRB — the paper's Figure 12). The dueling monitors
// are disabled (their LRU-vs-LIP counterfactual describes a plain queue
// cache, not the host) and the ZRO-waste gain is reduced: a never-hit
// eviction in such a host means the host's own ranking already handled
// the object, so it is weak evidence that earlier demotion would help.
func ForEnhancement() Option {
	return func(s *SCIP) {
		s.duelGain = 0
		s.evictGain = 0
		s.initW = 0.98
	}
}

// WithUnifiedModel makes insertion and promotion share a single ω pair,
// the literal reading of Algorithm 1. Used by the ablation benchmarks.
func WithUnifiedModel() Option {
	return func(s *SCIP) { s.unified = true }
}

// WithDueling toggles the sampled dueling monitors that ground the
// insertion weights in measured counterfactual hit counts (default on).
// gain scales the per-window drift; pass gain <= 0 to disable.
func WithDueling(gain float64) Option {
	return func(s *SCIP) { s.duelGain = gain }
}

// SCIP implements cache.InsertionPolicy per Algorithm 1. One instance
// drives one cache; it is not safe for concurrent use.
type SCIP struct {
	name        string
	hm, hl      *cache.History
	insW        *weightSet // ω_m/ω_l for missing objects
	proW        *weightSet // ω_m/ω_l for hit objects (== insW if unified)
	rate        *mab.AdaptiveRate
	seed        int64
	rng         *rand.Rand
	interval    int
	historyFrac float64
	initW       float64
	promoteMRU  bool
	unified     bool
	evictGain   float64
	hitGain     float64
	force       ForceMode

	duelGain  float64
	duelists  *cache.DuelMonitor
	duelEvery int

	// interval hit-rate window
	reqs, hits int
	// lastMissRatio is the miss ratio of the last completed interval; it
	// scales the ZRO-waste evidence so pollution evidence counts in
	// proportion to the miss pressure it can actually relieve.
	lastMissRatio float64
	// emaSize tracks the mean size of HIT objects — the byte price of
	// one hit — so waste evidence can be weighted by the hits the freed
	// bytes could buy: demoting a never-hit 1 MB object relieves ~64×
	// the pressure of a 16 KB one, while the rescue cost of a wrong
	// demotion is one miss regardless of size.
	emaSize float64

	// forcedPos carries the per-object adjustment of §3.2 from the
	// history lookup in OnAccess to the ChooseInsert call for the same
	// request.
	forcedPos    cache.Position
	forcedActive bool

	// pendingRepeatHit carries residency provenance from OnResidentHit to
	// the ChoosePromote call for the same request: true when the hit
	// object's residency already began with a promotion, i.e. the object
	// is being re-hit repeatedly and is certainly not a P-ZRO.
	pendingRepeatHit bool
}

var (
	_ cache.InsertionPolicy   = (*SCIP)(nil)
	_ cache.ResidencyObserver = (*SCIP)(nil)
)

// New returns a SCIP insertion policy for a cache of capBytes capacity.
func New(capBytes int64, opts ...Option) *SCIP {
	s := &SCIP{
		name:          "SCIP",
		seed:          1,
		interval:      DefaultInterval,
		historyFrac:   0.5,
		initW:         0.9,
		evictGain:     DefaultEvictGain,
		hitGain:       DefaultHitGain,
		force:         ForceRescue,
		lastMissRatio: 0.5,
		duelGain:      DefaultDuelGain,
	}
	for _, o := range opts {
		o(s)
	}
	// The PRNG is derived from the configured seed (never an ambient or
	// hard-coded source) so every replay is a pure function of the
	// configuration.
	s.rng = rand.New(rand.NewSource(s.seed))
	hb := int64(s.historyFrac * float64(capBytes))
	s.hm = cache.NewHistory(hb)
	s.hl = cache.NewHistory(hb)
	s.insW = newWeightSet(s.initW)
	if s.unified {
		s.proW = s.insW
	} else {
		s.proW = newWeightSet(s.initW)
	}
	s.rate = mab.NewAdaptiveRate(s.rng.Float64)
	if s.duelGain > 0 {
		s.duelists = cache.NewDuelMonitor(capBytes, 1.0/8, 7)
		s.duelEvery = s.interval / 8
		if s.duelEvery < 1 {
			s.duelEvery = 1
		}
	}
	return s
}

// NewSCI returns the SCI ablation (Algorithm 3): learned insertion for
// missing objects, unconditional MRU promotion for hit objects.
func NewSCI(capBytes int64, opts ...Option) *SCIP {
	return New(capBytes, append(opts, WithPromoteMRU())...)
}

// Name implements cache.InsertionPolicy.
func (s *SCIP) Name() string { return s.name }

// MRUWeight exposes the insertion-context global ω_m for tests and
// diagnostics.
func (s *SCIP) MRUWeight() float64 { return s.insW.global.Weight(0) }

// PromoteMRUWeight exposes the promotion-context global ω_m.
func (s *SCIP) PromoteMRUWeight() float64 { return s.proW.global.Weight(0) }

// ClassMRUWeight exposes the insertion ω_m for the size class of size.
func (s *SCIP) ClassMRUWeight(size int64) float64 {
	return s.insW.pick(size).Weight(0)
}

// Lambda exposes the current learning rate λ.
func (s *SCIP) Lambda() float64 { return s.rate.Lambda }

// context returns the weight set that the given residency's evidence
// should train: the promotion set for first-hit residencies (the proW
// gamble), the insertion set for miss insertions, and nil for repeat
// residencies, which are placed deterministically at MRU and therefore
// carry no decision to learn from.
func (s *SCIP) context(res cache.Residency) *weightSet {
	switch res {
	case cache.ResInserted:
		return s.insW
	case cache.ResFirstHit:
		if s.promoteMRU {
			return s.insW // SCI: promotions are not learned decisions
		}
		return s.proW
	default:
		return nil
	}
}

// OnAccess implements Algorithm 1's per-request bookkeeping: history-list
// lookups with weight decay on misses, the per-object §3.2 adjustment, and
// the periodic learning-rate update (lines 6–13 and 21–22).
func (s *SCIP) OnAccess(req cache.Request, hit bool) {
	s.reqs++
	s.forcedActive = false
	if s.duelists != nil {
		s.duelists.Observe(req)
		if s.reqs%s.duelEvery == 0 {
			if v := s.duelists.Verdict(); v > 0 {
				s.insW.global.Decay(1, s.duelGain*v)
			} else if v < 0 {
				s.insW.global.Decay(0, -s.duelGain*v)
			}
		}
	}
	if hit {
		s.hits++
		if s.emaSize == 0 {
			s.emaSize = float64(req.Size)
		} else {
			s.emaSize += 0.001 * (float64(req.Size) - s.emaSize)
		}
	} else {
		if res, ok := s.hm.Delete(req.Key); ok {
			// The object entered at MRU and was evicted without enough
			// reuse to stay: it behaved as a ZRO/P-ZRO. Decay ω_m and
			// send this object to the LRU position.
			if w := s.context(res); w != nil {
				w.decay(req.Size, 0, s.rate.Lambda)
			}
			if s.force == ForceBoth {
				s.forcedPos, s.forcedActive = cache.LRU, true
			}
		} else if res, ok := s.hl.Delete(req.Key); ok {
			// The object was dropped from the LRU position yet proved
			// reusable: decay ω_l and protect this object at MRU.
			if w := s.context(res); w != nil {
				w.decay(req.Size, 1, s.rate.Lambda)
			}
			// Rescue-force only objects near or below the typical hit
			// size: re-protecting a much larger object at MRU costs more
			// bytes than its one recovered hit is worth, so large objects
			// stay under the learned class weights.
			if s.force != ForceNone && s.sizeFactor(req.Size) <= 2 {
				s.forcedPos, s.forcedActive = cache.MRU, true
			}
		}
	}
	if s.reqs%s.interval == 0 {
		pi := float64(s.hits) / float64(s.interval)
		s.rate.Update(pi)
		s.lastMissRatio = 1 - pi
		s.hits = 0
	}
}

// InsertScore returns SCIP's MRU-insertion probability for a missing
// object, split from the random draw so composed policies (the scorer
// pipeline) can mix the probability with other signals before deciding.
// forced reports the per-object §3.2 adjustment, in which case the score
// is exactly 0 or 1 and no randomness should be consumed. Calling
// InsertScore consumes the one-shot forced flag exactly as ChooseInsert
// does, so it must be called once per miss.
func (s *SCIP) InsertScore(req cache.Request) (score float64, forced bool) {
	if s.forcedActive {
		s.forcedActive = false
		if s.forcedPos == cache.MRU {
			return 1, true
		}
		return 0, true
	}
	return s.insW.pick(req.Size).Weight(0), false
}

// PromoteScore is InsertScore's promotion-context counterpart. A forced
// result (SCI mode, or a repeat-residency hit pinned to MRU) is always
// score 1 and consumes no randomness.
func (s *SCIP) PromoteScore(req cache.Request) (score float64, forced bool) {
	repeat := s.pendingRepeatHit
	s.pendingRepeatHit = false
	if s.promoteMRU || repeat {
		return 1, true
	}
	return s.proW.pick(req.Size).Weight(0), false
}

// Uniform draws from the instance PRNG. Exposed so a composed policy
// consuming SCIP's scores draws from the same stream as the monolith —
// the byte-identity of a zro-only scorer mix depends on the RNG
// consumption sequence matching exactly.
func (s *SCIP) Uniform() float64 { return s.rng.Float64() }

// ChooseInsert implements the bimodal insertion for missing objects,
// honouring the per-object adjustment when the object was just found in a
// history list. The non-forced decision is score > u with one uniform
// draw, the same predicate (and the same single draw) as
// TwoExpert.Select.
func (s *SCIP) ChooseInsert(req cache.Request) cache.Position {
	p, forced := s.InsertScore(req)
	if forced {
		if p >= 1 {
			return cache.MRU
		}
		return cache.LRU
	}
	if p > s.rng.Float64() {
		return cache.MRU
	}
	return cache.LRU
}

// ChoosePromote treats promotion as a special insertion driven by the
// promotion-context weights. Only the first re-hit after an insertion
// consults the learned weights — that is where P-ZROs reveal themselves;
// an object whose residency already began with a promotion is being hit
// repeatedly and is pinned to MRU. For SCI every promotion is MRU.
func (s *SCIP) ChoosePromote(req cache.Request) cache.Position {
	p, forced := s.PromoteScore(req)
	if forced {
		return cache.MRU
	}
	if p > s.rng.Float64() {
		return cache.MRU
	}
	return cache.LRU
}

// OnEvict records the victim's metadata into the history list matching its
// insertion position (Algorithm 1, lines 15–19). An MRU-inserted victim
// that was never hit wasted a full queue traversal — the ZRO (or, for a
// promoted residency, P-ZRO) emergence event — so the matching context's
// ω_m additionally decays by evictGain × λ.
func (s *SCIP) OnEvict(ev cache.EvictInfo) {
	if ev.InsertedMRU {
		s.hm.Add(ev.Key, ev.Size, ev.Residency)
		gain := s.evictGain
		if ev.Residency == cache.ResFirstHit {
			gain = DefaultPromoteEvictGain
		}
		if !ev.EverHit && gain > 0 {
			if w := s.context(ev.Residency); w != nil {
				w.decay(ev.Size, 0, gain*s.rate.Lambda*s.sizeFactor(ev.Size))
			}
		}
	} else {
		s.hl.Add(ev.Key, ev.Size, ev.Residency)
	}
}

// sizeFactor weighs byte-cost evidence by the victim's size relative to
// the mean inserted size, clamped to [0.25, 64]; the applied decay is
// additionally clamped in weightSet.decay so one event cannot slam a
// class past recovery.
func (s *SCIP) sizeFactor(size int64) float64 {
	if s.emaSize <= 0 {
		return 1
	}
	f := float64(size) / s.emaSize
	if f < 0.25 {
		f = 0.25
	}
	if f > 64 {
		f = 64
	}
	return f
}

// OnResidentHit implements cache.ResidencyObserver: the first hit of a
// residency validates the placement that kept the object resident, so the
// matching context's ω_l decays by hitGain × λ. Only the first hit of a
// residency votes, and repeat residencies carry no decision, so each
// placement decision is validated at most once.
func (s *SCIP) OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int) {
	s.pendingRepeatHit = res != cache.ResInserted
	if hits != 1 || !insertedMRU {
		return
	}
	gain := s.hitGain
	if res == cache.ResFirstHit {
		gain = DefaultPromoteHitGain
	}
	if gain <= 0 {
		return
	}
	if w := s.context(res); w != nil {
		w.decay(req.Size, 1, gain*s.rate.Lambda)
	}
}

// HistorySizes reports the current byte occupancy of H_m and H_l.
func (s *SCIP) HistorySizes() (hm, hl int64) { return s.hm.Bytes(), s.hl.Bytes() }

// NewCache is a convenience constructor for the paper's SCIP-LRU: an LRU
// victim-selection cache whose insertion and promotion are driven by SCIP.
func NewCache(capBytes int64, opts ...Option) *cache.QueueCache {
	s := New(capBytes, opts...)
	return cache.NewQueueCache("SCIP", capBytes, s)
}

// NewSCICache returns the SCI-LRU configuration used by Figure 7.
func NewSCICache(capBytes int64, opts ...Option) *cache.QueueCache {
	s := NewSCI(capBytes, opts...)
	return cache.NewQueueCache("SCI", capBytes, s)
}
