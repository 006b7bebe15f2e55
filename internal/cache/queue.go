package cache

// Entry is one cached object inside an Arena. Entries are intrusive list
// nodes owned by exactly one Queue at a time, linked through int32 handles
// rather than pointers: the struct contains no pointers at all, so the
// chunks holding millions of entries are invisible to the garbage collector.
// The exported bookkeeping fields (Hits, Class, ...) are shared scratch
// space for policies so that a single slot serves LRU-family algorithms
// without per-policy wrapper nodes.
//
// The struct is exactly 64 bytes — one cache line — so every entry touch
// on the replay hot path costs a single line fill. Keep it that way when
// adding fields (there is a compile-time guard in arena.go).
type Entry struct {
	Key  uint64
	Size int64

	// _ pads the entry to one full cache line without moving the fields
	// below. No policy reads request times or a per-entry score, so no
	// entry stores one; whether a 36-byte entry pays is a separate,
	// measured question.
	_ [28]byte

	// Hits counts hits during the current residency.
	Hits int32
	// Class is a generic small-integer classification slot (size class,
	// segment number, ...).
	Class int32

	prev, next Handle
	// owner is the id of the queue holding this entry (0 detached,
	// ownerFree on the freelist).
	owner int16

	// InsertedMRU records whether the entry last entered the queue at
	// the MRU position (SCIP's insert_pos flag).
	InsertedMRU bool
	// Residency records how the entry's current residency began.
	Residency Residency
}

// Queue is an intrusive doubly-linked list of arena entries with byte
// accounting. The front is the MRU end, the back is the LRU end. All
// operations are O(1) and take handles; use the arena's At to reach the
// entry behind a handle.
//
// Queues are created by Arena.NewQueue and operate only on handles from
// that arena; the zero value is not usable.
type Queue struct {
	a          *Arena
	id         int16
	head, tail Handle
	n          int
	bytes      int64
}

// Len returns the number of entries.
func (q *Queue) Len() int { return q.n }

// Bytes returns the sum of entry sizes.
func (q *Queue) Bytes() int64 { return q.bytes }

// Front returns the MRU entry's handle, or None when empty.
func (q *Queue) Front() Handle { return q.head }

// Back returns the LRU entry's handle, or None when empty.
func (q *Queue) Back() Handle { return q.tail }

// Next returns the handle LRU-ward of h (toward the back), or None.
func (q *Queue) Next(h Handle) Handle { return q.a.dir.at(h).next }

// PushFront inserts h at the MRU end. The entry must not belong to any
// queue.
func (q *Queue) PushFront(h Handle) {
	dir := q.a.dir
	e := dir.at(h)
	if e.owner != 0 {
		panic("cache: PushFront of entry already in a queue")
	}
	e.owner = q.id
	e.prev = None
	e.next = q.head
	if q.head != None {
		dir.at(q.head).prev = h
	} else {
		q.tail = h
	}
	q.head = h
	q.n++
	q.bytes += e.Size
}

// PushBack inserts h at the LRU end. The entry must not belong to any
// queue.
func (q *Queue) PushBack(h Handle) {
	dir := q.a.dir
	e := dir.at(h)
	if e.owner != 0 {
		panic("cache: PushBack of entry already in a queue")
	}
	e.owner = q.id
	e.next = None
	e.prev = q.tail
	if q.tail != None {
		dir.at(q.tail).next = h
	} else {
		q.head = h
	}
	q.tail = h
	q.n++
	q.bytes += e.Size
}

// InsertBefore inserts h immediately MRU-ward of mark. mark must belong
// to q and h must be detached.
func (q *Queue) InsertBefore(h, mark Handle) {
	dir := q.a.dir
	m := dir.at(mark)
	if m.owner != q.id {
		panic("cache: InsertBefore mark not in queue")
	}
	e := dir.at(h)
	if e.owner != 0 {
		panic("cache: InsertBefore of entry already in a queue")
	}
	e.owner = q.id
	e.next = mark
	e.prev = m.prev
	if m.prev != None {
		dir.at(m.prev).next = h
	} else {
		q.head = h
	}
	m.prev = h
	q.n++
	q.bytes += e.Size
}

// Remove unlinks h from the queue. The entry must belong to q.
func (q *Queue) Remove(h Handle) {
	dir := q.a.dir
	e := dir.at(h)
	if e.owner != q.id {
		panic("cache: Remove of entry not in this queue")
	}
	if e.prev != None {
		dir.at(e.prev).next = e.next
	} else {
		q.head = e.next
	}
	if e.next != None {
		dir.at(e.next).prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev, e.next, e.owner = None, None, 0
	q.n--
	q.bytes -= e.Size
}

// MoveToFront moves an entry already in the queue to the MRU end. This is
// the hottest queue operation (every LRU-family hit lands here), so it
// splices directly instead of Remove+PushFront: length and byte accounting
// are unchanged by a move, and h != head implies e.prev is a real handle.
func (q *Queue) MoveToFront(h Handle) {
	if q.head == h {
		return
	}
	dir := q.a.dir
	e := dir.at(h)
	if e.owner != q.id {
		panic("cache: MoveToFront of entry not in this queue")
	}
	dir.at(e.prev).next = e.next
	if e.next != None {
		dir.at(e.next).prev = e.prev
	} else {
		q.tail = e.prev
	}
	e.prev = None
	e.next = q.head
	dir.at(q.head).prev = h
	q.head = h
}

// MoveToBack moves an entry already in the queue to the LRU end. Direct
// splice for the same reason as MoveToFront.
func (q *Queue) MoveToBack(h Handle) {
	if q.tail == h {
		return
	}
	dir := q.a.dir
	e := dir.at(h)
	if e.owner != q.id {
		panic("cache: MoveToBack of entry not in this queue")
	}
	dir.at(e.next).prev = e.prev
	if e.prev != None {
		dir.at(e.prev).next = e.next
	} else {
		q.head = e.next
	}
	e.next = None
	e.prev = q.tail
	dir.at(q.tail).next = h
	q.tail = h
}

// MoveTowardFront moves h one position toward the MRU end (PIPP-style
// single-step promotion). No-op if h is already at the front.
func (q *Queue) MoveTowardFront(h Handle) {
	p := q.a.dir.at(h).prev
	if p == None {
		return
	}
	q.Remove(h)
	q.InsertBefore(h, p)
}
