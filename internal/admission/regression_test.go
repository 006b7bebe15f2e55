package admission

// Regression tests for the admission-layer bug sweep (issue 7). Each
// test fails on the pre-fix code:
//
//   - AdaptSize.tune() fired before the boundary request was classified,
//     so each interval divided at most Interval−1 counted hits by
//     Interval and the boundary hit leaked into the next window.
//   - TwoQ/TinyLFU/AdaptSize had no cache.Remover, so scip-serve DELETE
//     answered 501 for every admission policy.

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
)

// TestAdaptSizeIntervalRate pins the corrected interval accounting: with
// Interval=8 and a request stream of 1 distinct miss followed by 7 hits,
// the first completed window's rate must be exactly 7/8. The old code
// tuned before classifying the 8th request, reporting 6/8, and leaked
// the boundary hit into the next window.
func TestAdaptSizeIntervalRate(t *testing.T) {
	a := NewAdaptSize(1_000_000, 1)
	a.Interval = 8
	for i := 0; i < 8; i++ {
		a.Access(req(int64(i), 7, 10)) // tiny object: admitted ~surely on the first miss
	}
	if got, want := a.LastIntervalRate(), 7.0/8; got != want {
		t.Fatalf("first interval rate = %v, want %v (boundary hit must count in its own window)", got, want)
	}
	// The boundary hit must not leak: a second window of 8 fresh misses
	// (never re-accessed) has rate exactly 0.
	for i := 0; i < 8; i++ {
		a.Access(req(int64(100+i), uint64(100+i), 1_000_000_000)) // never admitted, never hit
	}
	if got := a.LastIntervalRate(); got != 0 {
		t.Fatalf("second interval rate = %v, want 0 (no leaked boundary hit)", got)
	}
}

// TestAdmissionRemovers: all three admission policies implement
// cache.Remover; removal makes the key a miss again without disturbing
// learning state.
func TestAdmissionRemovers(t *testing.T) {
	for name, build := range builders(1_000_000) {
		p := build()
		r, ok := p.(cache.Remover)
		if !ok {
			t.Fatalf("%s: does not implement cache.Remover", name)
		}
		if r.Remove(1) {
			t.Fatalf("%s: Remove on empty cache reported true", name)
		}
		p.Access(req(0, 1, 100))
		p.Access(req(1, 1, 100))
		if !p.Access(req(2, 1, 100)) {
			t.Fatalf("%s: setup: key 1 should be a hit", name)
		}
		used := p.Used()
		if !r.Remove(1) {
			t.Fatalf("%s: Remove of resident key reported false", name)
		}
		if got := p.Used(); got != used-100 {
			t.Fatalf("%s: Used = %d after Remove, want %d", name, got, used-100)
		}
		if p.Access(req(3, 1, 100)) {
			t.Fatalf("%s: removed key still hits", name)
		}
		if r.Remove(99) {
			t.Fatalf("%s: Remove of absent key reported true", name)
		}
	}
}

// TestTwoQRemoveSkipsGhost: an invalidated probation object must NOT be
// recorded in A1out — its next access is a cold miss (A1in), not a
// probation graduate (Am).
func TestTwoQRemoveSkipsGhost(t *testing.T) {
	q := NewTwoQ(10_000)
	q.Access(req(0, 1, 100))
	if !q.Remove(1) {
		t.Fatal("Remove of resident key reported false")
	}
	if q.a1out.Contains(1) {
		t.Fatal("invalidation leaked the key into the A1out ghost")
	}
	q.Access(req(1, 1, 100))
	if h := q.index.Get(1); h == cache.None || q.arena.At(h).Class != twoQA1in {
		t.Fatal("re-access after invalidation must re-enter probation, not Am")
	}
}

// TestTinyLFURemoveKeepsSketch: invalidation must not decay the victim's
// frequency estimate — it still deserves to win a later admission duel.
func TestTinyLFURemoveKeepsSketch(t *testing.T) {
	tl := NewTinyLFU(100_000)
	for i := 0; i < 10; i++ {
		tl.Access(req(int64(i), 1, 1000))
	}
	est := tl.sk.Estimate(1)
	if !tl.Remove(1) {
		t.Fatal("Remove of resident key reported false")
	}
	if got := tl.sk.Estimate(1); got != est {
		t.Fatalf("sketch estimate changed on Remove: %d -> %d", est, got)
	}
	if tl.window.Len()+tl.main.Len() != tl.index.Len() {
		t.Fatal("index out of sync with queues after Remove")
	}
}

// TestAdaptSizeRemoveKeepsTuning: invalidation must not perturb the
// admission parameter c or the interval counters.
func TestAdaptSizeRemoveKeepsTuning(t *testing.T) {
	a := NewAdaptSize(1_000_000, 1)
	a.Access(req(0, 1, 10))
	c, reqs, hits := a.c, a.reqs, a.hits
	if !a.Remove(1) {
		t.Fatal("Remove of resident key reported false")
	}
	if a.c != c || a.reqs != reqs || a.hits != hits {
		t.Fatal("Remove perturbed tuning state")
	}
	if a.inner.Contains(1) {
		t.Fatal("key still resident after Remove")
	}
}
