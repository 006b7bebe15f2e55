package cache

import (
	"math"
	"unsafe"
)

// Entry must stay exactly one cache line (see the Entry doc comment); this
// fails to compile if a field pushes it past 64 bytes.
var _ [64]byte = [unsafe.Sizeof(Entry{})]byte{}

// Handle identifies an Entry inside an Arena. Handles are dense int32
// indices into the arena's chunks, so queues link entries through 4-byte
// integers instead of 8-byte pointers and the chunks themselves contain no
// pointers at all — the GC never scans cache metadata, no matter how many
// objects are resident. None is the null handle.
type Handle int32

// None is the null Handle, held by empty queue ends and returned by index
// lookups that miss.
const None Handle = -1

// owner sentinel: entries on the freelist carry ownerFree so misuse of a
// stale handle panics instead of corrupting a queue. Live detached entries
// carry owner 0; queue members carry the positive queue id.
const ownerFree int16 = -1

// maxArenaEntries bounds the arena so handles always fit in an int32.
const maxArenaEntries = math.MaxInt32

// Handle h lives in chunk h>>chunkShift at slot h&chunkMask. 512 entries
// fill exactly the 32 KiB size class, so a chunk carries no allocator
// slack, and a tiny cache pays for a single chunk.
const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one directory slot: a pointer to a fixed, pointer-free block
// of 512 entries. That pointer is the only GC-visible part of the arena.
type chunk struct {
	entries *[chunkSize]Entry
}

// chunkDir is an arena's chunk directory. Queue splices copy it into a
// local once per operation, so each entry they touch costs one
// chunk-pointer load and no reload of the directory itself.
type chunkDir []chunk

// at returns the entry for h, without the scipdebug liveness check.
func (d chunkDir) at(h Handle) *Entry {
	return &d[h>>chunkShift].entries[h&chunkMask]
}

// Arena holds Entries in a directory of fixed-size chunks addressed by
// Handle. Freed slots are threaded into a freelist through Entry.next, so
// steady-state churn (evict one, insert one) reuses slots without
// allocating; a chunk is added only when the live set exceeds every slot
// ever allocated. Chunks are never moved or copied.
//
// The zero value is ready to use. An Arena and the Queues created from it
// form one ownership domain: handles are only meaningful against the arena
// that allocated them. An *Entry obtained from At stays valid until its
// handle is freed; after that the slot may be recycled for another entry.
type Arena struct {
	dir chunkDir
	// n counts the slots ever handed out: every handle below n is live or
	// on the freelist.
	n int32
	// free1 is the freelist head encoded as handle+1 so the zero value
	// means "empty" (handle 0 is a valid slot).
	free1 int32
	// nq allocates queue ids; id 0 means "detached".
	nq int16
}

// NewArena returns an arena expecting about hint entries. The hint only
// sizes the chunk directory; chunks are added as entries are allocated.
func NewArena(hint int) *Arena {
	return &Arena{dir: make(chunkDir, 0, (hint+chunkMask)>>chunkShift)}
}

// At returns the entry for h. The pointer stays valid until h is freed.
func (a *Arena) At(h Handle) *Entry {
	if handleChecks {
		a.checkLive(h)
	}
	return a.dir.at(h)
}

// Alloc takes a slot from the freelist, or the next never-used slot when
// the freelist is empty, and returns its handle. The entry comes back
// zeroed and detached, whether the slot is recycled or fresh.
func (a *Arena) Alloc() Handle {
	if a.free1 != 0 {
		h := Handle(a.free1 - 1)
		e := a.dir.at(h)
		a.free1 = int32(e.next) + 1
		*e = Entry{prev: None, next: None}
		return h
	}
	if a.n == maxArenaEntries {
		panic("cache: arena full (2^31-1 entries)")
	}
	h := Handle(a.n)
	if int(h>>chunkShift) == len(a.dir) {
		a.grow()
	}
	a.n++
	*a.dir.at(h) = Entry{prev: None, next: None}
	return h
}

// grow appends one zeroed chunk to the directory. Existing chunks stay
// where they are; only the directory's chunk headers are ever copied.
// It runs once per 512 slots, only while the live set reaches a new high.
func (a *Arena) grow() {
	a.dir = append(a.dir, chunk{entries: new([chunkSize]Entry)})
}

// Free returns h's slot to the freelist. The entry must be detached from
// any queue. It is marked ownerFree, so a second Free, a queue insert or
// (under scipdebug) an At of the stale handle panics until Alloc hands
// the slot out again.
func (a *Arena) Free(h Handle) {
	e := a.dir.at(h)
	if e.owner != 0 {
		if e.owner == ownerFree {
			panic("cache: double Free of entry")
		}
		panic("cache: Free of entry still in a queue")
	}
	e.owner = ownerFree
	e.prev = None
	e.next = Handle(a.free1 - 1)
	a.free1 = int32(h) + 1
}

// NewQueue returns an empty queue linked to this arena. Queue identity is
// a small id stamped into member entries' owner field, which is how queue
// membership is checked without pointers.
func (a *Arena) NewQueue() Queue {
	if a.nq == math.MaxInt16 {
		panic("cache: arena queue ids exhausted")
	}
	a.nq++
	return Queue{a: a, id: a.nq, head: None, tail: None}
}

// checkLive panics on out-of-range or freed handles. Compiled in only
// under the scipdebug build tag (see handleChecks).
func (a *Arena) checkLive(h Handle) {
	if h < 0 || int32(h) >= a.n {
		panic("cache: At of out-of-range handle")
	}
	if a.dir.at(h).owner == ownerFree {
		panic("cache: At of freed entry")
	}
}

// checkIndexed panics unless h, which an index lookup of key returned,
// names a live entry that holds key and sits in one of this arena's
// queues: an index slot must never lead to a detached, freed or recycled
// entry. Compiled in only under the scipdebug build tag.
func (a *Arena) checkIndexed(h Handle, key uint64) {
	a.checkLive(h)
	e := a.dir.at(h)
	if e.Key != key {
		panic("cache: index maps a key to an entry holding another key")
	}
	if e.owner <= 0 || e.owner > a.nq {
		panic("cache: index maps a key to an entry in no queue")
	}
}
