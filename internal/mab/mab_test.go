package mab

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTwoExpertInit(t *testing.T) {
	e := NewTwoExpert(0.7)
	if e.Weight(0) != 0.7 || math.Abs(e.Weight(1)-0.3) > 1e-12 {
		t.Fatalf("weights = %g,%g", e.Weight(0), e.Weight(1))
	}
	if c := NewTwoExpert(2); c.Weight(0) != 1 {
		t.Fatal("clamping to 1 failed")
	}
	if c := NewTwoExpert(-1); c.Weight(0) != 0 {
		t.Fatal("clamping to 0 failed")
	}
}

func TestTwoExpertSelect(t *testing.T) {
	e := NewTwoExpert(0.5)
	if e.Select(0.4) != 0 {
		t.Fatal("u below w0 should pick expert 0")
	}
	if e.Select(0.5) != 1 {
		t.Fatal("u at w0 should pick expert 1")
	}
	if e.Select(0.99) != 1 {
		t.Fatal("u near 1 should pick expert 1")
	}
}

func TestTwoExpertDecayDirection(t *testing.T) {
	e := NewTwoExpert(0.5)
	e.Decay(0, 0.5) // penalise expert 0
	if e.Weight(0) >= 0.5 {
		t.Fatalf("decayed weight did not drop: %g", e.Weight(0))
	}
	if math.Abs(e.Weight(0)+e.Weight(1)-1) > 1e-12 {
		t.Fatalf("weights not normalised: sum=%g", e.Weight(0)+e.Weight(1))
	}
	before := e.Weight(1)
	e.Decay(1, 0.5)
	if e.Weight(1) >= before {
		t.Fatal("penalising expert 1 did not drop its weight")
	}
}

// Property: after any sequence of decays, the weights stay normalised and
// within (0,1).
func TestTwoExpertNormalisationProperty(t *testing.T) {
	f := func(arms []bool, lambdas []float64) bool {
		e := NewTwoExpert(0.5)
		n := len(arms)
		if len(lambdas) < n {
			n = len(lambdas)
		}
		for i := 0; i < n; i++ {
			arm := 0
			if arms[i] {
				arm = 1
			}
			l := math.Abs(lambdas[i])
			l = math.Mod(l, 1) // keep λ in [0,1)
			e.Decay(arm, l)
			sum := e.Weight(0) + e.Weight(1)
			if math.Abs(sum-1) > 1e-9 || e.Weight(0) < 0 || e.Weight(1) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoExpertRepeatedDecayConverges(t *testing.T) {
	e := NewTwoExpert(0.5)
	for i := 0; i < 200; i++ {
		e.Decay(0, 0.3)
	}
	if e.Weight(0) > 0.01 {
		t.Fatalf("persistent penalty did not converge: w0=%g", e.Weight(0))
	}
}

func TestAdaptiveRateFirstUpdateIsBaseline(t *testing.T) {
	a := NewAdaptiveRate(nil)
	l0 := a.Lambda
	if got := a.Update(0.5); got != l0 {
		t.Fatalf("first update changed λ: %g -> %g", l0, got)
	}
}

func TestAdaptiveRateAmplifiesOnImprovement(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.50)
	// λ rose (0.27→0.3 baseline δ=0.03); hit rate improves → λ should grow.
	l1 := a.Update(0.60)
	if l1 <= 0.3 {
		t.Fatalf("λ did not grow on improvement: %g", l1)
	}
	if l1 > a.Max {
		t.Fatalf("λ above Max: %g", l1)
	}
}

func TestAdaptiveRateShrinksOnDegradation(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.60)
	l1 := a.Update(0.40) // hit rate fell while λ rose → shrink
	if l1 >= 0.3 {
		t.Fatalf("λ did not shrink on degradation: %g", l1)
	}
	if l1 < a.Min {
		t.Fatalf("λ below Min: %g", l1)
	}
}

func TestAdaptiveRateClamps(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.1)
	for i := 0; i < 50; i++ {
		a.Update(0.1 + float64(i+1)*0.01) // persistent improvement
	}
	if a.Lambda > a.Max {
		t.Fatalf("λ exceeded Max: %g", a.Lambda)
	}
	b := NewAdaptiveRate(nil)
	b.Update(0.9)
	for i := 0; i < 50; i++ {
		b.Update(0.9 - float64(i+1)*0.01)
	}
	if b.Lambda < b.Min {
		t.Fatalf("λ under Min: %g", b.Lambda)
	}
}

// TestAdaptiveRateProbeUnfreezes is the regression test for the λ-freeze
// bug: once newLambda == Lambda for a single interval, δ_t is 0 forever and
// the old code never moved λ again (the random restart could not fire while
// the hit rate was non-degrading). The probe step must unstick λ on the
// very next update.
func TestAdaptiveRateProbeUnfreezes(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.5)
	a.prevLambda = a.Lambda // δ = 0: the frozen state
	before := a.Lambda
	l := a.Update(0.6) // improving, so no restart path can help
	if l == before {
		t.Fatalf("λ frozen at %g despite δ=0 (probe did not fire)", l)
	}
	if a.Lambda < a.Min || a.Lambda > a.Max {
		t.Fatalf("probe pushed λ out of bounds: %g", a.Lambda)
	}
	// The probe must re-establish a finite difference: the following
	// update has δ != 0 and hill-climbs normally.
	if a.Lambda == a.prevLambda {
		t.Fatal("probe did not re-seed δ for the next interval")
	}
}

// TestAdaptiveRateProbeAlternates: under pure stagnation (δ repeatedly
// forced to 0) the deterministic probe alternates direction instead of
// creeping monotonically toward a bound.
func TestAdaptiveRateProbeAlternates(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.5)
	var deltas []float64
	for i := 0; i < 4; i++ {
		a.prevLambda = a.Lambda // force δ = 0 each interval
		before := a.Lambda
		a.Update(0.5)
		deltas = append(deltas, a.Lambda-before)
	}
	for i, d := range deltas {
		if d == 0 {
			t.Fatalf("probe %d did not move λ", i)
		}
		if i > 0 && (d > 0) == (deltas[i-1] > 0) {
			t.Fatalf("probes %d and %d moved the same direction: %v", i-1, i, deltas)
		}
	}
}

// TestAdaptiveRateEqualHitRateIsNotDegradation is the regression test for
// the restart counter: a merely equal hit rate (Δ == 0) must not advance
// unlearnCount — the old `delta <= 0` check random-restarted a perfectly
// stable cache every RestartAfter intervals.
func TestAdaptiveRateEqualHitRateIsNotDegradation(t *testing.T) {
	a := NewAdaptiveRate(nil)
	a.Update(0.5)
	for i := 0; i < a.RestartAfter/2; i++ {
		a.Update(0.5) // Δ = 0 every interval
	}
	if a.unlearn != 0 {
		t.Fatalf("unlearn = %d after equal-hit-rate intervals, want 0", a.unlearn)
	}
}

// TestAdaptiveRateRestartAfterStrictDecreases: RestartAfter consecutive
// strictly degrading intervals trigger a restart (midpoint with nil Rand).
func TestAdaptiveRateRestartAfterStrictDecreases(t *testing.T) {
	a := NewAdaptiveRate(nil)
	hr := 0.9
	a.Update(hr)
	for i := 0; i < a.RestartAfter-1; i++ {
		hr -= 0.01
		a.Update(hr)
	}
	if a.unlearn != a.RestartAfter-1 {
		t.Fatalf("unlearn = %d, want %d", a.unlearn, a.RestartAfter-1)
	}
	hr -= 0.01
	a.Update(hr) // the RestartAfter-th strict decrease fires the restart
	mid := (a.Min + a.Max) / 2
	if a.Lambda != mid {
		t.Fatalf("nil-rand restart should land on midpoint %g, got %g", mid, a.Lambda)
	}
	if a.unlearn != 0 {
		t.Fatalf("unlearn = %d after restart, want 0", a.unlearn)
	}
}

func TestAdaptiveRateRandomRestartInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAdaptiveRate(rng.Float64)
	hr := 0.9
	a.Update(hr)
	for i := 0; i < a.RestartAfter; i++ {
		hr -= 0.01
		a.Update(hr)
	}
	if a.unlearn != 0 {
		t.Fatalf("restart did not fire: unlearn = %d", a.unlearn)
	}
	if a.Lambda < a.Min || a.Lambda > a.Max {
		t.Fatalf("restart λ out of bounds: %g", a.Lambda)
	}
}

func TestAdaptiveRateStagnationCounterResets(t *testing.T) {
	a := NewAdaptiveRate(nil)
	hr := 0.9
	a.Update(hr)
	for i := 0; i < 5; i++ {
		hr -= 0.01
		a.Update(hr) // strict decreases advance the counter
	}
	if a.unlearn != 5 {
		t.Fatalf("unlearn = %d, want 5", a.unlearn)
	}
	a.Update(hr + 0.05) // an improving interval resets it
	if a.unlearn != 0 {
		t.Fatalf("unlearn not reset on improvement: %d", a.unlearn)
	}
}

// Property: λ always stays within [Min, Max] for arbitrary hit sequences.
func TestAdaptiveRateBoundsProperty(t *testing.T) {
	f := func(hits []float64) bool {
		rng := rand.New(rand.NewSource(9))
		a := NewAdaptiveRate(rng.Float64)
		for _, h := range hits {
			h = math.Abs(math.Mod(h, 1))
			a.Update(h)
			if a.Lambda < a.Min-1e-12 || a.Lambda > a.Max+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
