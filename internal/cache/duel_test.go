package cache

import "testing"

func TestDuelMonitorSamplesSubset(t *testing.T) {
	d := NewDuelMonitor(1<<20, 1.0/8, 7)
	for i := uint64(0); i < 8000; i++ {
		d.Observe(Request{Time: int64(i), Key: i, Size: 64})
	}
	if d.samples == 0 {
		t.Fatal("no keys sampled")
	}
	// 1/8 sampling: expect ~1000 of 8000, generous bounds.
	if d.samples < 500 || d.samples > 1800 {
		t.Fatalf("samples = %d of 8000, want ~1000", d.samples)
	}
}

func TestDuelMonitorSampleIsDeterministicPerKey(t *testing.T) {
	d := NewDuelMonitor(1<<20, 1.0/8, 7)
	d.Observe(Request{Key: 3, Size: 64})
	first := d.samples
	d.Observe(Request{Key: 3, Size: 64})
	if d.samples != first*2 && d.samples != first {
		t.Fatal("key sampling not deterministic")
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
	if d.hitA != 0 || d.hitB != 0 || d.samples != 0 {
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
	c.SetInsertion(nil)
	c.Access(Request{Time: 4, Key: 3, Size: 100})
	if e := entryOf(c, 3); !e.InsertedMRU {
		t.Fatal("nil swap did not restore plain LRU")
	}
}
