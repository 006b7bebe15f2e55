package cache

import (
	"math/rand"
	"testing"
)

// checkIndexAgainst compares x with a reference map: Len, Get for every
// reference key, and the live slots, which must hold each reference key
// exactly once and nothing else.
func checkIndexAgainst(t *testing.T, x *Index, ref map[uint64]Handle) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("n = %d, ref has %d", x.n, len(ref))
	}
	for k, v := range ref {
		if got := x.Get(k); got != v {
			t.Fatalf("Get(%d) = %d, want %d", k, got, v)
		}
	}
	seen := make(map[uint64]Handle, len(ref))
	for _, s := range x.slots {
		if s.val == None {
			continue
		}
		if prev, dup := seen[s.key]; dup {
			t.Fatalf("key %d held twice (%d, %d)", s.key, prev, s.val)
		}
		seen[s.key] = s.val
	}
	if len(seen) != len(ref) {
		t.Fatalf("table holds %d keys, ref has %d", len(seen), len(ref))
	}
	for k, v := range seen {
		if ref[k] != v {
			t.Fatalf("table holds %d=%d, ref %d", k, v, ref[k])
		}
	}
}

// TestIndexVsMapRandomOps drives the index and a map[uint64]Handle through
// the same random operation stream, crossing several growths, and requires
// identical observable behaviour throughout.
func TestIndexVsMapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x Index // zero value: first Put must self-initialize
	ref := make(map[uint64]Handle)
	// Small key space forces collisions; the zero-value start forces
	// several rehashes within 20k ops.
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

// FuzzIndexVsMap is the differential fuzzer: an arbitrary byte string is
// decoded into an operation stream applied to both the open-addressing
// index and a reference map, and any observable divergence fails. The
// index starts at its 16-slot minimum, so the 256-key space reaches every
// rehash up to 512 slots.
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
		checkIndexAgainst(t, &x, ref)
	})
}
