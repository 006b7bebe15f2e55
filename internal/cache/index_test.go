package cache

import (
	"math/rand"
	"testing"
)

// checkIndexAgainst compares x with a reference map: Len, Get for every
// reference key, and the live slots of both tables, which must hold each
// reference key exactly once and nothing else.
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
	for _, table := range [][]indexEntry{x.slots, x.old} {
		for _, s := range table {
			if s.val == None || s.val == tombstone {
				continue
			}
			if prev, dup := seen[s.key]; dup {
				t.Fatalf("key %d held twice (%d, %d)", s.key, prev, s.val)
			}
			seen[s.key] = s.val
		}
	}
	if len(seen) != len(ref) {
		t.Fatalf("tables hold %d keys, ref has %d", len(seen), len(ref))
	}
	for k, v := range seen {
		if ref[k] != v {
			t.Fatalf("tables hold %d=%d, ref %d", k, v, ref[k])
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
