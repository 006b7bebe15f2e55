package mab

import "math"

// MultiExpert generalises TwoExpert to n ≥ 1 experts: a probability
// vector updated by multiplicative (Hedge) decay and renormalisation.
// The scorer pipeline uses one arm per admission scorer and decays each
// arm by λ × its observed loss, which is exactly the TwoExpert update
// with the two-arm complement replaced by an n-arm simplex projection.
type MultiExpert struct {
	w []float64
}

// NewMultiExpert returns experts initialised to the given weights,
// normalised to sum to 1. Negative weights are clamped to 0. A nil or
// all-zero init yields the uniform distribution.
func NewMultiExpert(init []float64) *MultiExpert {
	m := &MultiExpert{w: make([]float64, len(init))}
	copy(m.w, init)
	m.normalize()
	return m
}

// N returns the number of experts.
func (m *MultiExpert) N() int { return len(m.w) }

// Weight returns the probability of expert arm.
func (m *MultiExpert) Weight(arm int) float64 { return m.w[arm] }

// Weights returns the live weight vector; callers must not mutate it.
func (m *MultiExpert) Weights() []float64 { return m.w }

// Decay applies ω_arm ← ω_arm · e^{−λ} followed by renormalisation, the
// n-arm form of TwoExpert.Decay. As there, the per-event decay should be
// λ × loss with loss ∈ [0, 1]. With a single expert the update is inert:
// the weight renormalises back to exactly 1, so a one-scorer pipeline is
// provably unaffected by tuning (the monolith-equivalence invariant).
func (m *MultiExpert) Decay(arm int, lambda float64) {
	if lambda <= 0 {
		return
	}
	m.w[arm] *= math.Exp(-lambda)
	m.normalize()
}

// normalize projects the weights back onto the simplex and, with two or
// more experts, clamps every weight to the exploration floor so no
// scorer's opinion is permanently silenced (the same absorption argument
// as TwoExpert.WeightFloor). With one expert the floor is skipped: the
// only weight must be exactly 1.
func (m *MultiExpert) normalize() {
	n := len(m.w)
	if n == 0 {
		return
	}
	sum := 0.0
	for i, w := range m.w {
		if w < 0 || math.IsNaN(w) {
			m.w[i] = 0
			continue
		}
		sum += w
	}
	if sum <= 0 {
		u := 1 / float64(n)
		for i := range m.w {
			m.w[i] = u
		}
		return
	}
	if n == 1 {
		m.w[0] = 1
		return
	}
	for i := range m.w {
		m.w[i] /= sum
	}
	// Floor pass: lift starved weights, then renormalise the remainder.
	// One pass suffices because the floor total n×WeightFloor ≪ 1.
	lifted := 0.0
	floored := 0
	for _, w := range m.w {
		if w < WeightFloor {
			lifted += WeightFloor - w
			floored++
		}
	}
	if floored == 0 {
		return
	}
	scale := 1 - lifted
	for i, w := range m.w {
		if w < WeightFloor {
			m.w[i] = WeightFloor
		} else {
			m.w[i] = w * scale / (1 - float64(floored)*WeightFloor + lifted - lifted)
		}
	}
	// The closed form above keeps the sum at 1 only approximately when
	// several arms are floored at once; finish with an exact pass.
	sum = 0
	for _, w := range m.w {
		sum += w
	}
	excess := sum - 1
	if excess != 0 {
		for i := range m.w {
			if m.w[i] > WeightFloor {
				m.w[i] -= excess * (m.w[i] - WeightFloor) / (sum - float64(n)*WeightFloor)
			}
		}
	}
}
