package cache

import (
	"math/rand"
	"testing"
)

func TestHistoryAddContainsDelete(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 40, ResInserted)
	h.Add(2, 40, ResInserted)
	if !h.Contains(1) || !h.Contains(2) {
		t.Fatal("added keys missing")
	}
	if h.Bytes() != 80 || h.Len() != 2 {
		t.Fatalf("Bytes=%d Len=%d, want 80,2", h.Bytes(), h.Len())
	}
	if _, ok := h.Delete(1); !ok {
		t.Fatal("Delete(1) = false")
	}
	if _, ok := h.Delete(1); ok {
		t.Fatal("second Delete(1) = true")
	}
	if h.Contains(1) {
		t.Fatal("deleted key still present")
	}
}

func TestHistoryFIFOEviction(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 40, ResInserted)
	h.Add(2, 40, ResInserted)
	h.Add(3, 40, ResInserted) // must evict 1 (oldest)
	if h.Contains(1) {
		t.Fatal("oldest record not evicted")
	}
	if !h.Contains(2) || !h.Contains(3) {
		t.Fatal("newer records lost")
	}
	if h.Bytes() != 80 {
		t.Fatalf("Bytes=%d, want 80", h.Bytes())
	}
}

// TestHistoryRefreshKeepsFIFOAge pins the duplicate-Add semantics:
// Algorithm 1's history is FIFO, so re-adding a present key must NOT renew
// its age. Key 1 stays the oldest record through a refresh and is still
// the first to be evicted. (The old remove-then-reinsert implementation
// moved it to the front and evicted 2 instead.)
func TestHistoryRefreshKeepsFIFOAge(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 40, ResInserted)
	h.Add(2, 40, ResInserted)
	h.Add(1, 40, ResFirstHit) // refresh: age unchanged, 1 is still oldest
	if h.Len() != 2 || h.Bytes() != 80 {
		t.Fatalf("refresh duplicated the record: Len=%d Bytes=%d", h.Len(), h.Bytes())
	}
	h.Add(3, 40, ResInserted) // evicts 1, the oldest
	if h.Contains(1) {
		t.Fatal("FIFO age renewed on refresh: 1 should have been evicted first")
	}
	if !h.Contains(2) || !h.Contains(3) {
		t.Fatal("expected keys missing")
	}
}

// TestHistoryRefreshUpdatesMetadata checks that a duplicate Add refreshes
// size and residency in place.
func TestHistoryRefreshUpdatesMetadata(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 10, ResInserted)
	h.Add(2, 10, ResInserted)
	h.Add(1, 30, ResRepeat)
	if h.Bytes() != 40 {
		t.Fatalf("Bytes=%d, want 40 after size refresh", h.Bytes())
	}
	if res, ok := h.Delete(1); !ok || res != ResRepeat {
		t.Fatalf("Delete(1) = %v,%v, want ResRepeat,true", res, ok)
	}
}

// TestHistoryRefreshGrowthEvictsSelf: growing the oldest record over
// budget evicts from the LRU end, which is the refreshed record itself.
func TestHistoryRefreshGrowthEvictsSelf(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 40, ResInserted)
	h.Add(2, 40, ResInserted)
	h.Add(1, 70, ResInserted) // 70+40 > 100: oldest (1 itself) must go
	if h.Contains(1) {
		t.Fatal("over-budget refreshed record not evicted")
	}
	if !h.Contains(2) || h.Bytes() != 40 {
		t.Fatalf("wrong survivor set: Contains(2)=%v Bytes=%d", h.Contains(2), h.Bytes())
	}
}

func TestHistoryOversizedAndZeroCap(t *testing.T) {
	h := NewHistory(50)
	h.Add(1, 60, ResInserted) // larger than capacity: ignored
	if h.Contains(1) || h.Len() != 0 {
		t.Fatal("oversized record stored")
	}
	z := NewHistory(0)
	z.Add(1, 1, ResInserted)
	if z.Len() != 0 {
		t.Fatal("zero-capacity history stored a record")
	}
}

func TestHistoryResizeOnRefresh(t *testing.T) {
	h := NewHistory(100)
	h.Add(1, 10, ResInserted)
	h.Add(1, 90, ResInserted)
	if h.Bytes() != 90 {
		t.Fatalf("Bytes=%d, want 90 after size refresh", h.Bytes())
	}
}

func TestHistoryNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := NewHistory(1000)
	for i := 0; i < 10000; i++ {
		h.Add(uint64(rng.Intn(300)), int64(rng.Intn(200)+1), Residency(rng.Intn(3)))
		if h.Bytes() > 1000 {
			t.Fatalf("capacity exceeded: %d", h.Bytes())
		}
		if h.Len() > 0 && h.Bytes() <= 0 {
			t.Fatal("byte accounting broken")
		}
	}
}

// checkHistoryInvariants cross-checks the queue and the index: same
// population, same entries, exact byte accounting, budget respected.
func checkHistoryInvariants(t *testing.T, h *History) {
	t.Helper()
	if h.Bytes() > h.Capacity() && h.Capacity() > 0 {
		t.Fatalf("byte budget exceeded: %d > %d", h.Bytes(), h.Capacity())
	}
	if h.Len() != h.index.Len() {
		t.Fatalf("queue length %d != index size %d", h.Len(), h.index.Len())
	}
	var bytes int64
	n := 0
	for hd := h.q.Front(); hd != None; hd = h.q.Next(hd) {
		n++
		e := h.q.At(hd)
		bytes += e.Size
		if ih := h.index.Get(e.Key); ih != hd {
			t.Fatalf("queue entry %d not (or wrongly) indexed", e.Key)
		}
	}
	if n != h.Len() {
		t.Fatalf("queue walk found %d entries, Len() says %d", n, h.Len())
	}
	if bytes != h.Bytes() {
		t.Fatalf("queue walk bytes %d != Bytes() %d", bytes, h.Bytes())
	}
}

// TestHistoryPropertyRandomOps drives a History with random Add/Delete
// sequences while checking, after every operation, that the byte
// budget is never exceeded, the index and the queue agree, and that a
// Delete immediately after an Add round-trips the residency.
func TestHistoryPropertyRandomOps(t *testing.T) {
	for _, capBytes := range []int64{1, 64, 1000, 1 << 20} {
		rng := rand.New(rand.NewSource(capBytes))
		h := NewHistory(capBytes)
		for i := 0; i < 5000; i++ {
			key := uint64(rng.Intn(200))
			switch op := rng.Intn(9); {
			case op < 6: // Add
				size := int64(rng.Intn(2000) + 1)
				res := Residency(rng.Intn(3))
				h.Add(key, size, res)
				if size <= capBytes && h.Contains(key) {
					// Residency must round-trip through Delete...
					got, ok := h.Delete(key)
					if !ok || got != res {
						t.Fatalf("op %d: Delete(%d) = %v,%v after Add(res=%v)", i, key, got, ok, res)
					}
					if h.Contains(key) {
						t.Fatalf("op %d: key %d still present after Delete", i, key)
					}
					// ...and the record is restored for the next ops.
					h.Add(key, size, res)
				}
			default: // Delete
				had := h.Contains(key)
				if _, ok := h.Delete(key); ok != had {
					t.Fatalf("op %d: Delete(%d) = %v, Contains said %v", i, key, ok, had)
				}
			}
			checkHistoryInvariants(t, h)
		}
	}
}

// FuzzHistory feeds arbitrary operation tapes to a History and checks the
// structural invariants after every step.
func FuzzHistory(f *testing.F) {
	f.Add(int64(100), []byte{0, 1, 2, 3, 0, 0, 1})
	f.Add(int64(1), []byte{0, 0, 0})
	f.Add(int64(1<<16), []byte{5, 9, 13, 2, 2, 2, 7, 7})
	f.Fuzz(func(t *testing.T, capBytes int64, tape []byte) {
		if capBytes < 0 || capBytes > 1<<40 {
			t.Skip()
		}
		h := NewHistory(capBytes)
		for i := 0; i+2 < len(tape); i += 3 {
			key := uint64(tape[i] % 32)
			size := int64(tape[i+1])*16 + 1
			switch tape[i+2] % 4 {
			case 0, 1:
				h.Add(key, size, Residency(tape[i+2]%3))
			case 2:
				h.Delete(key)
			case 3:
				h.Add(key, size, ResInserted)
				h.Add(key, size*2, ResRepeat) // duplicate-Add path
			}
			if h.Bytes() > capBytes && capBytes > 0 {
				t.Fatalf("budget exceeded: %d > %d", h.Bytes(), capBytes)
			}
			if h.Len() != h.index.Len() {
				t.Fatalf("queue/index disagree: %d vs %d", h.Len(), h.index.Len())
			}
		}
	})
}

func TestHistoryResidencyRoundTrip(t *testing.T) {
	h := NewHistory(1000)
	h.Add(1, 10, ResFirstHit)
	h.Add(2, 10, ResRepeat)
	if res, ok := h.Delete(1); !ok || res != ResFirstHit {
		t.Fatalf("Delete(1) = %v,%v", res, ok)
	}
	if res, ok := h.Delete(2); !ok || res != ResRepeat {
		t.Fatalf("Delete(2) = %v,%v", res, ok)
	}
}
