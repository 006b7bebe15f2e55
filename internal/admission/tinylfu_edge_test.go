package admission

// Edge-behaviour coverage for TinyLFU (issue 7, satellite 4): sketch
// aging at the exact sample-window boundary, and the admit duel with an
// empty main region / a candidate larger than cap − windowCap. The
// structural invariants checked after every scenario are the absence of
// index leaks (every indexed entry is on exactly one queue) and of
// used-bytes drift (queue byte accounting matches the entries).

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
)

// checkTinyLFU walks both queues and cross-checks them against the index
// and the byte accounting.
func checkTinyLFU(t *testing.T, tl *TinyLFU) {
	t.Helper()
	count := 0
	var bytes int64
	for _, q := range []*cache.Queue{&tl.window, &tl.main} {
		for h := q.Front(); h != cache.None; h = q.Next(h) {
			count++
			e := tl.arena.At(h)
			bytes += e.Size
			if tl.index.Get(e.Key) != h {
				t.Fatalf("queued entry %d missing from index", e.Key)
			}
		}
	}
	if count != tl.index.Len() {
		t.Fatalf("index leak: %d queued entries vs %d indexed", count, tl.index.Len())
	}
	if bytes != tl.Used() {
		t.Fatalf("used-bytes drift: entries sum to %d, Used() = %d", bytes, tl.Used())
	}
	if tl.Used() > tl.cap {
		t.Fatalf("over capacity: %d > %d", tl.Used(), tl.cap)
	}
}

// TestSketchAgingBoundary pins the aging point: no decay at window−1
// samples, halving (counters and sample count) at exactly window.
func TestSketchAgingBoundary(t *testing.T) {
	s := newSketch(256)
	for i := 0; i < 20; i++ {
		s.Add(42)
	}
	if got := s.Estimate(42); got != 15 {
		t.Fatalf("estimate = %d, want counter capped at 15", got)
	}
	for s.samples < s.window-1 {
		s.Add(uint64(1_000_000 + s.samples))
	}
	if got := s.Estimate(42); got != 15 {
		t.Fatalf("estimate decayed to %d before the window boundary", got)
	}
	s.Add(7) // the window-th sample fires the aging halving
	if got, want := s.samples, s.window/2; got != want {
		t.Fatalf("samples after aging = %d, want %d", got, want)
	}
	if got := s.Estimate(42); got != 7 {
		t.Fatalf("hot-key estimate after halving = %d, want 7", got)
	}
}

// TestTinyLFUAdmitEmptyMain: a candidate graduating into an empty main
// region skips the duel entirely — there is no victim to duel — and must
// be admitted even when it alone exceeds cap − windowCap.
func TestTinyLFUAdmitEmptyMain(t *testing.T) {
	tl := NewTinyLFU(20_000) // windowCap = 4096
	tl.Access(req(0, 1, 19_000))
	h := tl.index.Get(1)
	if h == cache.None || tl.arena.At(h).Class != tlfuMain {
		t.Fatal("lone oversized candidate should be admitted into empty main")
	}
	checkTinyLFU(t, tl)
}

// TestTinyLFUOversizedWinner: a main resident larger than cap − windowCap
// leaves no room for later window arrivals, so the next insertion evicts
// it straight back out. The wasted admission is accepted behaviour; the
// invariant under test is that the push/re-evict cycle leaks nothing.
func TestTinyLFUOversizedWinner(t *testing.T) {
	tl := NewTinyLFU(20_000)
	tl.Access(req(0, 1, 19_000)) // into main, per TestTinyLFUAdmitEmptyMain
	tl.Access(req(1, 2, 1_500))  // pushes Used to 20_500: the giant is evicted
	if tl.index.Get(1) != cache.None {
		t.Fatal("oversized main resident should have been evicted to fit the new arrival")
	}
	if tl.index.Get(2) == cache.None {
		t.Fatal("new arrival should be resident")
	}
	checkTinyLFU(t, tl)
}

// TestTinyLFUOversizedDuelLoss: an oversized candidate that loses the
// sketch duel against the main victim is dropped cleanly — no index
// entry, no byte accounting residue.
func TestTinyLFUOversizedDuelLoss(t *testing.T) {
	tl := NewTinyLFU(20_000)
	// Warm key 1's sketch estimate well above any newcomer's, then land
	// it in main (empty-main admission).
	for i := 0; i < 10; i++ {
		tl.Access(req(int64(i), 1, 3_000))
	}
	if tl.index.Get(1) == cache.None {
		t.Fatal("setup: warm key should be resident")
	}
	// Graduate it to main by overflowing the window with a throwaway.
	tl.Access(req(20, 2, 3_000))
	if h := tl.index.Get(1); h == cache.None || tl.arena.At(h).Class != tlfuMain {
		t.Fatal("setup: warm key should have graduated to main")
	}
	// A cold oversized candidate must lose the duel against the warm
	// victim and vanish without residue.
	tl.Access(req(30, 3, 19_000))
	if tl.index.Get(3) != cache.None {
		t.Fatal("cold oversized candidate should have lost the duel")
	}
	if tl.index.Get(1) == cache.None {
		t.Fatal("warm main resident should have survived the duel")
	}
	checkTinyLFU(t, tl)
}
