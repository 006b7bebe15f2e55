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

// chunk is one directory slot: a fixed block of entries and their
// generation counters. The generations sit in their own 2 KiB block
// rather than beside the entries because one 34 KiB struct would fall off
// the 32 KiB size class and be rounded up to 40 KiB of pages. Both blocks
// are pointer-free; the two pointers here are the only GC-visible part
// of the arena.
type chunk struct {
	entries *[chunkSize]Entry
	// gens counts, per slot, how many times the slot has been freed. It
	// backs Ref validity checks and lives outside Entry so the hot
	// entries stay at one cache line each; it is only touched on Alloc
	// of a fresh slot, on Free and by Ref/Live.
	gens *[chunkSize]uint32
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
	live  int
	// nq allocates queue ids; id 0 means "detached".
	nq int16
}

// NewArena returns an arena expecting about hint entries. The hint only
// sizes the chunk directory; chunks are added as entries are allocated.
func NewArena(hint int) *Arena {
	return &Arena{dir: make(chunkDir, 0, (hint+chunkMask)>>chunkShift)}
}

// Len returns the number of live (allocated, not freed) entries.
func (a *Arena) Len() int { return a.live }

// At returns the entry for h. The pointer stays valid until h is freed.
func (a *Arena) At(h Handle) *Entry {
	if handleChecks {
		a.checkLive(h)
	}
	return a.dir.at(h)
}

// Alloc takes a slot from the freelist, or the next never-used slot when
// the freelist is empty, and returns its handle. The slot's policy fields
// are zeroed; a recycled slot keeps its generation so stale Refs to the
// previous occupant remain detectably dead.
func (a *Arena) Alloc() Handle {
	if a.free1 != 0 {
		h := Handle(a.free1 - 1)
		e := a.dir.at(h)
		a.free1 = int32(e.next) + 1
		*e = Entry{prev: None, next: None}
		a.live++
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
	c := &a.dir[h>>chunkShift]
	c.entries[h&chunkMask] = Entry{prev: None, next: None}
	c.gens[h&chunkMask] = 0
	a.live++
	return h
}

// grow appends one zeroed chunk to the directory. Existing chunks stay
// where they are; only the directory's chunk headers are ever copied.
// It runs once per 512 slots, only while the live set reaches a new high.
func (a *Arena) grow() {
	a.dir = append(a.dir, chunk{entries: new([chunkSize]Entry), gens: new([chunkSize]uint32)})
}

// Free returns h's slot to the freelist. The entry must be detached from
// any queue. Freeing bumps the slot's generation, so Refs taken before the
// free report dead.
func (a *Arena) Free(h Handle) {
	c := &a.dir[h>>chunkShift]
	e := &c.entries[h&chunkMask]
	if e.owner != 0 {
		if e.owner == ownerFree {
			panic("cache: double Free of entry")
		}
		panic("cache: Free of entry still in a queue")
	}
	c.gens[h&chunkMask]++
	e.owner = ownerFree
	e.prev = None
	e.next = Handle(a.free1 - 1)
	a.free1 = int32(h) + 1
	a.live--
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

// Ref is a generation-stamped handle for validity tracking across frees.
// Refs are a debugging and testing device (the ABA property tests use
// them); hot paths carry bare Handles.
type Ref struct {
	H   Handle
	gen uint32
}

// Ref stamps h with its current generation.
func (a *Arena) Ref(h Handle) Ref {
	return Ref{H: h, gen: a.dir[h>>chunkShift].gens[h&chunkMask]}
}

// Live reports whether r still names the same allocation it was taken
// from: the slot has not been freed, and it has not been recycled for a
// different entry (generation match).
func (a *Arena) Live(r Ref) bool {
	if r.H < 0 || int32(r.H) >= a.n {
		return false
	}
	c := &a.dir[r.H>>chunkShift]
	return c.gens[r.H&chunkMask] == r.gen && c.entries[r.H&chunkMask].owner != ownerFree
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
