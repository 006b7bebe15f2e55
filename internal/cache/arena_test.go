package cache

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// pointerBearing returns the path of the first field inside t that the
// garbage collector would have to scan, or "" when t is pointer-free.
func pointerBearing(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerBearing(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		return pointerBearing(t.Elem(), path+"[]")
	}
	return ""
}

// TestDataPlaneIsPointerFree pins the property DESIGN.md §12 rests on:
// the arena's entry blocks and the index table's slots hold no
// pointer-bearing field, so the runtime allocates them as noscan spans
// and the GC's mark work does not grow with the resident set. A string,
// slice, map, interface or pointer added to any of them fails here. The
// arena's only GC-visible memory is its chunk directory: one slot per 512
// entries, holding nothing but the pointer to that block.
func TestDataPlaneIsPointerFree(t *testing.T) {
	chunkT := reflect.TypeOf(chunk{})
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Entry{}), reflect.TypeOf(indexEntry{}), reflect.TypeOf(Handle(0)),
		chunkT.Field(0).Type.Elem(),
	} {
		if p := pointerBearing(typ, typ.String()); p != "" {
			t.Errorf("%s is not pointer-free: %s", typ, p)
		}
	}
	for i := 0; i < chunkT.NumField(); i++ {
		if f := chunkT.Field(i); f.Type.Kind() != reflect.Ptr {
			t.Errorf("chunk.%s is a %s, want a pointer to a pointer-free block", f.Name, f.Type.Kind())
		}
	}
	arenaT := reflect.TypeOf(Arena{})
	for i := 0; i < arenaT.NumField(); i++ {
		f := arenaT.Field(i)
		if p := pointerBearing(f.Type, "Arena."+f.Name); p != "" && f.Name != "dir" {
			t.Errorf("pointer-bearing Arena field outside the directory: %s", p)
		}
	}
	var a Arena
	for i := 0; i < 2*chunkSize+1; i++ {
		a.Alloc()
	}
	if len(a.dir) != 3 {
		t.Errorf("%d entries take %d directory slots, want 3", 2*chunkSize+1, len(a.dir))
	}
}

// TestArenaGrowthCopiesNothing pins what the chunked layout buys. Growing
// an arena to 2^20 entries allocates little more than the entries it ends
// up holding, and nothing per slot beside them; a slab grown by append
// strands every outgrown copy as garbage and allocates several times as
// much. An *Entry from At keeps naming its entry however far the arena
// grows. And handles on either side of a chunk boundary behave like any
// others in every queue splice and on the freelist.
func TestArenaGrowthCopiesNothing(t *testing.T) {
	const n = 1 << 20
	perEntry := uint64(unsafe.Sizeof(Entry{}))
	pinned := [...]Handle{0, chunkSize - 1, chunkSize}
	var ptrs [len(pinned)]*Entry

	var a Arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i <= chunkSize; i++ {
		a.Alloc()
	}
	for i, h := range pinned {
		ptrs[i] = a.At(h)
		ptrs[i].Key = uint64(h) + 1
	}
	for i := chunkSize + 1; i < n; i++ { // more than 10^6 further Allocs
		a.Alloc()
	}
	runtime.ReadMemStats(&after)

	for i, h := range pinned {
		if e := a.At(h); e != ptrs[i] || e.Key != uint64(h)+1 {
			t.Errorf("At(%d) = %p (key %d) after growth, was %p (key %d)", h, e, e.Key, ptrs[i], h+1)
		}
	}
	// The directory itself still grows by append; every copy of it the
	// appends made is a geometric series worth a few final directories.
	dirBytes := uint64(cap(a.dir)) * uint64(unsafe.Sizeof(chunk{}))
	budget := n*perEntry*102/100 + 8*dirBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("growing to %d entries allocated %d bytes (%.2f x the entries' %d), budget %d",
			n, got, float64(got)/float64(n*perEntry), n*perEntry, budget)
	}

	// Four handles straddling the first chunk boundary, through every
	// splice: w x | y z.
	var b Arena
	for i := 0; i < 2*chunkSize; i++ {
		allocSized(&b, uint64(i), 1)
	}
	w, x, y, z := Handle(chunkSize-2), Handle(chunkSize-1), Handle(chunkSize), Handle(chunkSize+1)
	q := b.NewQueue()
	order := func(step string, want ...Handle) {
		t.Helper()
		var keys []uint64
		for _, h := range want {
			keys = append(keys, b.At(h).Key)
		}
		back := keysBackToFront(&q)
		slices.Reverse(back)
		if fwd := keysFrontToBack(&q); !slices.Equal(fwd, keys) || !slices.Equal(back, keys) ||
			q.Len() != len(want) || q.Bytes() != int64(len(want)) {
			t.Fatalf("after %s: front-to-back %v, reversed back-to-front %v, len %d, bytes %d; want %v",
				step, fwd, back, q.Len(), q.Bytes(), keys)
		}
	}
	q.PushFront(x)
	q.PushBack(z)
	q.InsertBefore(w, x)
	q.InsertBefore(y, z)
	order("pushes and inserts", w, x, y, z)
	q.MoveToFront(y)
	q.MoveToBack(w)
	q.MoveTowardFront(z)
	order("moves", y, z, x, w)
	q.Remove(x)
	order("remove", y, z, w)

	// Freeing x and allocating again recycles x as a zeroed, detached
	// entry, and leaves the queue y z w untouched.
	b.At(x).Class = 1
	b.Free(x)
	if h := b.Alloc(); h != x {
		t.Errorf("Alloc after freeing %d returned %d, want the freed slot", x, h)
	} else if e := *b.At(h); e != (Entry{prev: None, next: None}) {
		t.Errorf("recycled entry %d not zeroed: %+v", h, e)
	}
	order("free and realloc", y, z, w)
}
