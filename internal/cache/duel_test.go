package cache

import "testing"

func TestDuelMonitorSamplesSubset(t *testing.T) {
	d := NewDuelMonitor(1<<20, 1.0/8, 7)
	for i := uint64(0); i < 8000; i++ {
		d.Observe(Request{Time: int64(i), Key: i, Size: 64})
	}
	// Every sampled key is distinct and fits the 128 KiB ghost, so the
	// MRU ghost holds exactly the sampled keys.
	n := d.mru.Len()
	if n == 0 {
		t.Fatal("no keys sampled")
	}
	// 1/8 sampling: expect ~1000 of 8000, generous bounds.
	if n < 500 || n > 1800 {
		t.Fatalf("samples = %d of 8000, want ~1000", n)
	}
}

func TestDuelMonitorSampleIsDeterministicPerKey(t *testing.T) {
	// A key the sample takes on its first request it takes again: its
	// second request hits the MRU ghost. A key it skips stays skipped.
	d := NewDuelMonitor(1<<20, 1.0/8, 7)
	taken := 0
	for k := uint64(0); k < 64; k++ {
		n, hits := d.mru.Len(), d.hitA
		d.Observe(Request{Key: k, Size: 64})
		sampled := d.mru.Len() > n
		d.Observe(Request{Key: k, Size: 64})
		if again := d.hitA > hits; again != sampled {
			t.Fatalf("key %d: sampled on first request = %v, on second = %v", k, sampled, again)
		}
		if sampled {
			taken++
		}
	}
	if taken == 0 || taken == 64 {
		t.Fatalf("%d of 64 keys sampled, want some but not all", taken)
	}
}

func TestDuelMonitorVerdictFavoursMRUOnRecency(t *testing.T) {
	// Pure recency traffic over a working set larger than the ghosts:
	// the LRU ghost keeps recent objects hot; the LIP ghost freezes an
	// early snapshot and starves. MRU must win.
	d := NewDuelMonitor(1<<16, 1.0/2, 0) // sample everything, bigger ghosts
	for round := 0; round < 50; round++ {
		for k := uint64(0); k < 64; k++ {
			d.Observe(Request{Time: int64(round*64 + int(k)), Key: k + uint64(round*8), Size: 512})
		}
	}
	if v := d.Verdict(); v <= 0 {
		t.Fatalf("verdict = %g, want > 0 (MRU wins recency drift)", v)
	}
}

func TestDuelMonitorVerdictResetsWindow(t *testing.T) {
	d := NewDuelMonitor(1<<16, 1.0/2, 0)
	for i := uint64(0); i < 100; i++ {
		d.Observe(Request{Key: i % 4, Size: 64})
	}
	d.Verdict()
	if d.hitA != 0 || d.hitB != 0 {
		t.Fatal("verdict did not reset the window")
	}
	if v := d.Verdict(); v != 0 {
		t.Fatalf("empty-window verdict = %g, want 0", v)
	}
}

func TestSetInsertionHotSwap(t *testing.T) {
	c := NewLRU(1000)
	c.Access(Request{Time: 1, Key: 1, Size: 100})
	ins := &fixedIns{insert: LRU, promote: MRU}
	c.SetInsertion(ins)
	// Resident object still hits; new misses follow the new policy.
	if !c.Access(Request{Time: 2, Key: 1, Size: 100}) {
		t.Fatal("resident object lost across hot swap")
	}
	c.Access(Request{Time: 3, Key: 2, Size: 100})
	if e := entryOf(c, 2); e.InsertedMRU {
		t.Fatal("post-swap insertion ignored the new policy")
	}
	// The installed policy is never swapped out, not even for nil.
	for _, next := range []InsertionPolicy{nil, &fixedIns{insert: MRU, promote: MRU}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetInsertion(%v) over an installed policy did not panic", next)
				}
			}()
			c.SetInsertion(next)
		}()
	}
	c.Access(Request{Time: 4, Key: 3, Size: 100})
	if e := entryOf(c, 3); e.InsertedMRU {
		t.Fatal("a rejected swap replaced the installed policy")
	}
}
