package cache

// Index is an open-addressing hash table from uint64 keys to Handles,
// replacing map[uint64]*Entry in the cache data plane. The backing array
// is pointer-free (uint64 keys, int32 handles), so a fully loaded index
// contributes nothing to GC scan work.
//
// Layout: power-of-two capacity, Fibonacci multiplicative hashing into the
// top bits, linear probing over a single slot array (key and handle share
// a 16-byte slot, so each probe step touches one cache line). Deletions
// use backward-shift compaction, so no tombstones accumulate on the probe
// paths. Growth is one-shot: the Put that crosses half load rehashes every
// entry into a table of twice the size. Nothing iterates the index, so
// slot placement never reaches a decision.
//
// The zero value is an empty index ready for use.
type Index struct {
	slots []indexEntry
	shift uint8 // 64 - log2(len(slots))
	n     int   // live entries
}

// indexEntry is one open-addressing slot: a key and its handle (or None
// for an empty slot).
type indexEntry struct {
	key uint64
	val Handle
}

// fibMult is the 64-bit Fibonacci hashing multiplier (2^64 / phi).
const fibMult = 0x9E3779B97F4A7C15

const indexMinBits = 4 // smallest table: 16 slots

func indexSlot(key uint64, shift uint8) uint64 {
	return (key * fibMult) >> shift
}

// Init pre-sizes the index for hint entries so steady-state use never
// grows. Calling Init on a non-empty index is a no-op.
func (x *Index) Init(hint int) {
	if x.slots != nil {
		return
	}
	bits := uint8(indexMinBits)
	for bits < 31 && (1<<bits) < hint*2 {
		bits++
	}
	x.alloc(bits)
}

// alloc installs a fresh empty table of 1<<bits slots.
func (x *Index) alloc(bits uint8) {
	x.slots = make([]indexEntry, 1<<bits)
	for i := range x.slots {
		x.slots[i].val = None
	}
	x.shift = 64 - bits
	x.n = 0
}

// Get returns the handle for key, or None. Get never mutates the index,
// so concurrent readers under the caller's read lock stay safe.
func (x *Index) Get(key uint64) Handle {
	if len(x.slots) == 0 {
		return None
	}
	slots := x.slots
	mask := uint64(len(slots)) - 1
	i := indexSlot(key, x.shift)
	for {
		s := &slots[i]
		if s.val == None {
			return None
		}
		if s.key == key {
			return s.val
		}
		i = (i + 1) & mask
	}
}

// Put maps key to h, replacing any existing mapping.
func (x *Index) Put(key uint64, h Handle) {
	if len(x.slots) == 0 {
		x.alloc(indexMinBits)
	}
	slots := x.slots
	mask := uint64(len(slots)) - 1
	i := indexSlot(key, x.shift)
	for {
		s := &slots[i]
		if s.val == None {
			break
		}
		if s.key == key {
			s.val = h
			return
		}
		i = (i + 1) & mask
	}
	// Grow above 1/2 load: probe chains stay short enough that misses
	// (which scan a full run in Get and again here) cost ~2 probes.
	if (x.n+1)*2 > len(slots) {
		x.grow()
		x.insertFresh(key, h)
		return
	}
	slots[i] = indexEntry{key: key, val: h}
	x.n++
}

// Delete removes key, returning its handle and whether it was present.
func (x *Index) Delete(key uint64) (Handle, bool) {
	i, h := x.find(key)
	if h == None {
		return None, false
	}
	x.removeAt(i)
	return h, true
}

// find returns the slot holding key and its handle, or None, so a caller
// can inspect the entry before deleting it (removeAt) in the same probe.
func (x *Index) find(key uint64) (uint64, Handle) {
	if len(x.slots) == 0 {
		return 0, None
	}
	slots := x.slots
	mask := uint64(len(slots)) - 1
	i := indexSlot(key, x.shift)
	for {
		s := &slots[i]
		if s.val == None || s.key == key {
			return i, s.val
		}
		i = (i + 1) & mask
	}
}

// removeAt deletes the mapping find returned slot i for.
func (x *Index) removeAt(i uint64) {
	x.backshift(i)
	x.n--
}

// grow rehashes every entry into a table of twice the size.
func (x *Index) grow() {
	old := x.slots
	x.alloc(64 - x.shift + 1)
	for _, s := range old {
		if s.val != None {
			x.insertFresh(s.key, s.val)
		}
	}
}

// insertFresh places a key known to be absent, with room known to exist.
func (x *Index) insertFresh(key uint64, h Handle) {
	mask := uint64(len(x.slots)) - 1
	i := indexSlot(key, x.shift)
	for x.slots[i].val != None {
		i = (i + 1) & mask
	}
	x.slots[i] = indexEntry{key: key, val: h}
	x.n++
}

// backshift deletes slot i by shifting the following probe run backward,
// so probe chains stay dense and the table never holds tombstones.
func (x *Index) backshift(i uint64) {
	slots := x.slots
	mask := uint64(len(slots)) - 1
	j := i
	for {
		j = (j + 1) & mask
		if slots[j].val == None {
			break
		}
		home := indexSlot(slots[j].key, x.shift)
		if ((j - home) & mask) >= ((j - i) & mask) {
			slots[i] = slots[j]
			i = j
		}
	}
	slots[i].val = None
}
