package cache

import (
	"math/rand"
	"testing"
)

// checkIndexAgainst compares every observable of x with a reference map:
// Len, Get for every reference key, and ForEach coverage.
func checkIndexAgainst(t *testing.T, x *Index, ref map[uint64]Handle) {
	t.Helper()
	if x.Len() != len(ref) {
		t.Fatalf("Len = %d, ref has %d", x.Len(), len(ref))
	}
	for k, v := range ref {
		if got := x.Get(k); got != v {
			t.Fatalf("Get(%d) = %d, want %d", k, got, v)
		}
	}
	seen := make(map[uint64]Handle, len(ref))
	x.ForEach(func(k uint64, h Handle) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("ForEach yielded key %d twice (%d, %d)", k, prev, h)
		}
		seen[k] = h
	})
	if len(seen) != len(ref) {
		t.Fatalf("ForEach yielded %d keys, ref has %d", len(seen), len(ref))
	}
	for k, v := range seen {
		if ref[k] != v {
			t.Fatalf("ForEach yielded %d=%d, ref %d", k, v, ref[k])
		}
	}
}

// TestIndexVsMapRandomOps drives the index and a map[uint64]Handle through
// the same random operation stream, crossing several incremental growths,
// and requires identical observable behaviour throughout.
func TestIndexVsMapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x Index // zero value: first Put must self-initialize
	ref := make(map[uint64]Handle)
	// Small key space forces collisions; unbounded growth forces several
	// migration windows within 20k ops.
	const keySpace = 6000
	for op := 0; op < 20_000; op++ {
		key := uint64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0, 1: // Put (insert or overwrite)
			h := Handle(rng.Int31n(1 << 20))
			x.Put(key, h)
			ref[key] = h
		case 2: // Delete
			h, ok := x.Delete(key)
			rh, rok := ref[key]
			if ok != rok || (ok && h != rh) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), want (%d,%v)", op, key, h, ok, rh, rok)
			}
			delete(ref, key)
		case 3: // Get
			h := x.Get(key)
			rh, rok := ref[key]
			if rok && h != rh || !rok && h != None {
				t.Fatalf("op %d: Get(%d) = %d, ref (%d,%v)", op, key, h, rh, rok)
			}
		}
		if op%2500 == 0 {
			checkIndexAgainst(t, &x, ref)
		}
	}
	checkIndexAgainst(t, &x, ref)
}

// TestIndexMigrationWindow pins behaviour while a frozen table is
// draining: lookups, overwrites and deletes of keys still housed in the
// frozen table must behave as if the table were one.
func TestIndexMigrationWindow(t *testing.T) {
	var x Index
	x.Init(16) // 32 slots
	// Fill to just under the growth threshold, then push it over.
	n := 0
	for ; n < 16; n++ {
		x.Put(uint64(n), Handle(n))
	}
	x.Put(uint64(n), Handle(n)) // triggers grow; frozen table now draining
	n++
	if x.old == nil {
		t.Fatal("expected a frozen table in flight")
	}
	// Every key — migrated or frozen — must resolve.
	for i := 0; i < n; i++ {
		if x.Get(uint64(i)) != Handle(i) {
			t.Fatalf("Get(%d) missed during migration", i)
		}
	}
	// Overwrite a key that may still live in the frozen table: the new
	// mapping must shadow it permanently.
	x.Put(3, 333)
	if x.Get(3) != 333 {
		t.Fatal("overwrite during migration lost")
	}
	// Delete a frozen-resident key.
	if h, ok := x.Delete(5); !ok || h != 5 {
		t.Fatalf("Delete(5) = (%d,%v) during migration", h, ok)
	}
	if x.Get(5) != None {
		t.Fatal("deleted key resurfaced from frozen table")
	}
	// Drain completely via mutations; the frozen table must release.
	for i := 100; i < 200; i++ {
		x.Put(uint64(i), Handle(i))
		x.Delete(uint64(i))
	}
	if x.old != nil {
		t.Fatal("frozen table never drained")
	}
	if x.Get(3) != 333 || x.Get(5) != None || x.Get(0) != 0 {
		t.Fatal("post-drain state wrong")
	}
}

// FuzzIndexVsMap is the differential fuzzer from the issue: an arbitrary
// byte string is decoded into an operation stream applied to both the
// open-addressing index and a reference map, and any observable divergence
// fails. Growth and the incremental-migration window are reachable because
// the index starts at its 16-slot minimum.
func FuzzIndexVsMap(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x42, 0x03, 0x42})
	f.Add([]byte("put get del put put del get"))
	seed := make([]byte, 0, 3*64)
	for i := byte(0); i < 64; i++ { // forces at least two growths
		seed = append(seed, 0x00, i, i)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		ref := make(map[uint64]Handle)
		for i := 0; i+1 < len(data); {
			op := data[i]
			key := uint64(data[i+1])
			i += 2
			switch op % 3 {
			case 0: // Put: value derives from the op byte so overwrites differ
				h := Handle(op)
				x.Put(key, h)
				ref[key] = h
			case 1: // Get
				h := x.Get(key)
				rh, ok := ref[key]
				if ok && h != rh || !ok && h != None {
					t.Fatalf("Get(%d) = %d, ref (%d,%v)", key, h, rh, ok)
				}
			case 2: // Delete
				h, ok := x.Delete(key)
				rh, rok := ref[key]
				if ok != rok || (ok && h != rh) {
					t.Fatalf("Delete(%d) = (%d,%v), want (%d,%v)", key, h, ok, rh, rok)
				}
				delete(ref, key)
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("Len = %d, ref %d", x.Len(), len(ref))
		}
		for k, v := range ref {
			if x.Get(k) != v {
				t.Fatalf("final Get(%d) = %d, want %d", k, x.Get(k), v)
			}
		}
	})
}

// TestArenaRefSurvivesChurn is the handle-validity property test: a Ref
// taken on a live entry stays Live across unrelated alloc/free churn, dies
// the moment its slot is freed, and stays dead when the slot is recycled
// for a different key (the ABA case).
func TestArenaRefSurvivesChurn(t *testing.T) {
	var a Arena
	h := a.Alloc()
	a.At(h).Key = 1
	r := a.Ref(h)
	if !a.Live(r) {
		t.Fatal("fresh ref not live")
	}

	// Unrelated churn — including arena growth — must not kill the ref.
	others := make([]Handle, 0, 64)
	for i := 0; i < 64; i++ {
		others = append(others, a.Alloc())
	}
	for _, o := range others {
		a.Free(o)
	}
	if !a.Live(r) {
		t.Fatal("ref died from unrelated churn")
	}

	// Freeing the slot kills the ref.
	a.Free(h)
	if a.Live(r) {
		t.Fatal("ref live after Free")
	}

	// ABA: the freelist hands the same slot to a new entry; the old ref
	// must not validate against the recycled occupant.
	h2 := a.Alloc()
	if h2 != h {
		t.Fatalf("freelist did not recycle slot %d (got %d)", h, h2)
	}
	a.At(h2).Key = 2
	if a.Live(r) {
		t.Fatal("stale ref validates recycled slot (ABA)")
	}
	r2 := a.Ref(h2)
	if !a.Live(r2) {
		t.Fatal("new occupant's ref not live")
	}
}

// TestArenaRefRandomChurn cross-checks Live against a shadow model over a
// long random alloc/free stream: at every step, each tracked ref's
// Live answer must match whether its allocation is still the current
// occupant of its slot.
func TestArenaRefRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a Arena
	type tracked struct {
		r     Ref
		alive bool
	}
	var refs []tracked
	var live []Handle
	for op := 0; op < 10_000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0: // alloc
			h := a.Alloc()
			live = append(live, h)
			refs = append(refs, tracked{r: a.Ref(h), alive: true})
		case rng.Intn(2) == 0: // free a random live entry
			i := rng.Intn(len(live))
			h := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			a.Free(h)
			for j := range refs {
				if refs[j].alive && refs[j].r.H == h {
					refs[j].alive = false
				}
			}
		}
		if op%500 == 0 {
			for j := range refs {
				if got := a.Live(refs[j].r); got != refs[j].alive {
					t.Fatalf("op %d: Live(ref %d) = %v, want %v", op, j, got, refs[j].alive)
				}
			}
		}
	}
	if a.Len() != len(live) {
		t.Fatalf("arena Len = %d, model %d", a.Len(), len(live))
	}
}
