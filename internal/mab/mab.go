package mab

import "math"

// TwoExpert holds the execution probabilities of two experts. For SCIP,
// expert 0 is the MRU insertion policy (MIP, ω_m) and expert 1 the LRU
// insertion policy (LIP, ω_l). The weights always sum to 1.
type TwoExpert struct {
	w [2]float64
}

// NewTwoExpert returns experts with the given initial weight for expert 0;
// expert 1 receives the complement. w0 is clamped to [0, 1].
func NewTwoExpert(w0 float64) *TwoExpert {
	w0 = math.Min(1, math.Max(0, w0))
	return &TwoExpert{w: [2]float64{w0, 1 - w0}}
}

// Weight returns the probability of the given expert (0 or 1).
func (t *TwoExpert) Weight(arm int) float64 { return t.w[arm] }

// Select picks an expert using the uniform variate u ∈ [0,1): expert 0
// when ω_0 > u, otherwise expert 1 (Algorithm 1, SELECT).
func (t *TwoExpert) Select(u float64) int {
	if t.w[0] > u {
		return 0
	}
	return 1
}

// WeightFloor is the exploration floor: neither expert's probability may
// fall below it. Without a floor the multiplicative update absorbs at
// ω = 0/1 and can never recover (the zero weight stays zero under
// normalisation); the floor plays the role BIP's residual bimodality plays
// in the paper — "suspected ZROs and P-ZROs are given a chance to be
// accessed".
const WeightFloor = 0.01

// Decay applies ω_arm ← ω_arm · e^{−λ} followed by normalisation so the
// weights again sum to 1 (Algorithm 1 lines 8–13), then clamps both
// weights to [WeightFloor, 1−WeightFloor]. Decaying one expert is how SCIP
// penalises the position whose history list produced the hit.
func (t *TwoExpert) Decay(arm int, lambda float64) {
	t.w[arm] *= math.Exp(-lambda)
	sum := t.w[0] + t.w[1]
	if sum <= 0 {
		t.w[0], t.w[1] = 0.5, 0.5
		return
	}
	w0 := t.w[0] / sum
	if w0 < WeightFloor {
		w0 = WeightFloor
	}
	if w0 > 1-WeightFloor {
		w0 = 1 - WeightFloor
	}
	t.w[0] = w0
	t.w[1] = 1 - w0
}

// AdaptiveRate is the learning-rate controller of Algorithm 2. Update is
// called once per learning interval with the interval's average hit rate
// Π_t; it adjusts λ by the quotient of the hit-rate change and the
// previous λ change (a stochastic hill-climbing step), and performs a
// random restart after RestartAfter consecutive non-improving stagnant
// intervals.
type AdaptiveRate struct {
	// Lambda is λ_{t−i}, the rate currently in force.
	Lambda float64
	// Min and Max clamp λ (paper: 0.001 and 1).
	Min, Max float64
	// RestartAfter is the unlearnCount threshold (paper: 10).
	RestartAfter int
	// Rand supplies uniform variates in [0,1) for random restarts.
	Rand func() float64

	prevLambda  float64 // λ_{t−2i}
	prevHitRate float64 // Π_{t−i}
	unlearn     int
	initialized bool
	probeUp     bool // direction of the next deterministic probe
}

// ProbeFrac is the relative step applied to λ when the hill climber has no
// gradient to follow (δ_t == 0). Without it the controller freezes: once
// newLambda == Lambda for a single interval, δ stays 0 forever and only a
// random restart could unstick λ. The probe re-seeds the finite
// difference deterministically, alternating direction so λ does not creep
// toward a bound under pure stagnation.
const ProbeFrac = 0.05

// NewAdaptiveRate returns a controller with the paper's defaults except
// for the λ floor: the paper's 0.001 effectively freezes all weight
// adaptation when the hill climber wanders to the bound (the gradient of
// the interval hit rate with respect to λ is noise-dominated), so the
// floor is raised to keep the bandit responsive; the ablation benchmark
// compares both.
// rand may be nil, in which case restarts reset λ to its midpoint.
func NewAdaptiveRate(rand func() float64) *AdaptiveRate {
	return &AdaptiveRate{
		Lambda:       0.3,
		Min:          0.05,
		Max:          1,
		RestartAfter: 10,
		Rand:         rand,
		// Seed λ_{t−2i} slightly away from λ₀ so the first update has a
		// non-zero δ and hill climbing starts immediately.
		prevLambda: 0.3 * 0.9,
	}
}

// Update consumes the hit rate Π_t of the interval that just ended and
// computes λ_t per Algorithm 2. It returns the new λ.
func (a *AdaptiveRate) Update(hitRate float64) float64 {
	if !a.initialized {
		// First interval: record the baseline; keep λ as-is.
		a.initialized = true
		a.prevHitRate = hitRate
		return a.Lambda
	}
	delta := hitRate - a.prevHitRate   // Δ_t
	dLambda := a.Lambda - a.prevLambda // δ_t
	newLambda := a.Lambda
	if dLambda != 0 {
		// Clip the quotient so one noisy interval cannot slam λ to a
		// bound (δ_t shrinks as λ converges, which makes the raw
		// quotient explode).
		ratio := delta / dLambda
		if ratio > 1 {
			ratio = 1
		}
		if ratio < -1 {
			ratio = -1
		}
		if ratio > 0 {
			newLambda = math.Min(a.Lambda+a.Lambda*ratio, a.Max)
		} else {
			newLambda = math.Max(a.Lambda+a.Lambda*ratio, a.Min)
		}
	} else {
		// No gradient to follow: probe. A zero δ would otherwise
		// propagate forever (λ_t == λ_{t−i} ⇒ δ_{t+i} == 0).
		newLambda = a.probe()
	}
	// Random restart after RestartAfter consecutive strictly degrading
	// intervals ("if the performance keeps degrading, we reset the
	// learning rate", Algorithm 2 lines 10–15). A merely equal hit rate
	// is stagnation, not degradation — the probe handles it — so only
	// strict decreases (or a dead cache, Π_t == 0) advance the counter.
	if hitRate == 0 || delta < 0 {
		a.unlearn++
		if a.unlearn >= a.RestartAfter {
			a.unlearn = 0
			newLambda = a.restartValue()
		}
	} else {
		a.unlearn = 0
	}
	a.prevLambda = a.Lambda
	a.Lambda = newLambda
	a.prevHitRate = hitRate
	return a.Lambda
}

// probe returns λ nudged by ±ProbeFrac, alternating direction each call
// and bouncing off the [Min, Max] bounds, so a stalled climber always
// re-establishes a non-zero δ for the next interval's finite difference.
func (a *AdaptiveRate) probe() float64 {
	step := a.Lambda * ProbeFrac
	if step == 0 {
		step = ProbeFrac * a.Min
	}
	up := a.probeUp
	a.probeUp = !a.probeUp
	if up {
		if next := a.Lambda + step; next <= a.Max {
			return next
		}
		return math.Max(a.Lambda-step, a.Min)
	}
	if next := a.Lambda - step; next >= a.Min {
		return next
	}
	return math.Min(a.Lambda+step, a.Max)
}

func (a *AdaptiveRate) restartValue() float64 {
	if a.Rand == nil {
		return (a.Min + a.Max) / 2
	}
	return a.Min + a.Rand()*(a.Max-a.Min)
}
