package cache

// Index is an open-addressing hash table from uint64 keys to Handles,
// replacing map[uint64]*Entry in the cache data plane. The backing array
// is pointer-free (uint64 keys, int32 handles), so a fully loaded index
// contributes nothing to GC scan work.
//
// Layout: power-of-two capacity, Fibonacci multiplicative hashing into the
// top bits, linear probing over a single slot array (key and handle share
// a 16-byte slot, so each probe step touches one cache line). Deletions in
// the active table use backward-shift compaction (no tombstones accumulate
// on the hot probe paths). Growth is incremental: the loaded table is
// frozen, a table of twice the size becomes active, and each subsequent
// Put or Delete migrates a bounded batch of frozen slots, so no single
// operation pays a full rehash. While a frozen table exists, lookups probe
// the active table first and fall back to the frozen one; frozen-table
// deletions leave tombstones (the frozen table only drains, so they cannot
// accumulate beyond its original load).
//
// The zero value is an empty index ready for use.
type Index struct {
	slots []indexEntry
	shift uint8 // 64 - log2(len(slots))
	n     int   // live entries in the active table

	// Frozen table being drained by incremental migration. nil when no
	// growth is in flight.
	old      []indexEntry
	oldShift uint8
	oldN     int // live (non-tombstone, unmigrated) entries left
	migrated int // next frozen slot to scan
}

// indexEntry is one open-addressing slot: a key and its handle (or None
// for an empty slot, tombstone for a retired frozen-table slot).
type indexEntry struct {
	key uint64
	val Handle
}

// tombstone marks a frozen-table slot whose entry was deleted or migrated.
// It never appears in the active table.
const tombstone Handle = -2

// fibMult is the 64-bit Fibonacci hashing multiplier (2^64 / phi).
const fibMult = 0x9E3779B97F4A7C15

const (
	indexMinBits = 4 // smallest table: 16 slots
	// migrateChunk frozen slots are scanned per mutating operation. The
	// active table needs well over half its predecessor's slot count in
	// fresh inserts before it can grow again, while migration finishes
	// after len(old)/migrateChunk mutations, so a frozen table always
	// drains long before the next growth.
	migrateChunk = 16
)

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

// alloc installs a fresh active table of 1<<bits slots.
func (x *Index) alloc(bits uint8) {
	x.slots = make([]indexEntry, 1<<bits)
	for i := range x.slots {
		x.slots[i].val = None
	}
	x.shift = 64 - bits
	x.n = 0
}

// Len returns the number of keys present.
func (x *Index) Len() int { return x.n + x.oldN }

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
			break
		}
		if s.key == key {
			return s.val
		}
		i = (i + 1) & mask
	}
	if x.old == nil {
		return None
	}
	if j, ok := x.oldProbe(key); ok {
		return x.old[j].val
	}
	return None
}

// Put maps key to h, replacing any existing mapping.
func (x *Index) Put(key uint64, h Handle) {
	if len(x.slots) == 0 {
		x.alloc(indexMinBits)
	}
	if x.old != nil {
		x.migrate(migrateChunk)
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
	// Not in the active table. A frozen-table occurrence must be retired
	// so the new mapping shadows it permanently.
	if x.old != nil {
		if j, ok := x.oldProbe(key); ok {
			x.old[j].val = tombstone
			x.dropOldEntry()
		}
	}
	// Grow above 1/2 load: probe chains stay short enough that misses
	// (which scan a full run in Get and again here) cost ~2 probes.
	if (x.n+x.oldN+1)*2 > len(slots) {
		x.grow()
		slots = x.slots
		mask = uint64(len(slots)) - 1
		i = indexSlot(key, x.shift)
		for slots[i].val != None {
			i = (i + 1) & mask
		}
	}
	slots[i] = indexEntry{key: key, val: h}
	x.n++
}

// Delete removes key, returning its handle and whether it was present.
func (x *Index) Delete(key uint64) (Handle, bool) {
	if len(x.slots) == 0 {
		return None, false
	}
	if x.old != nil {
		x.migrate(migrateChunk)
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
			v := s.val
			x.backshift(i)
			x.n--
			return v, true
		}
		i = (i + 1) & mask
	}
	if x.old != nil {
		if j, ok := x.oldProbe(key); ok {
			v := x.old[j].val
			x.old[j].val = tombstone
			x.dropOldEntry()
			return v, true
		}
	}
	return None, false
}

// oldProbe finds key's slot in the frozen table, skipping tombstones.
func (x *Index) oldProbe(key uint64) (uint64, bool) {
	mask := uint64(len(x.old)) - 1
	i := indexSlot(key, x.oldShift)
	for {
		s := &x.old[i]
		if s.val == None {
			return 0, false
		}
		if s.val != tombstone && s.key == key {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// dropOldEntry accounts for one frozen-table entry retired (deleted or
// migrated) and releases the frozen table once it is fully drained.
func (x *Index) dropOldEntry() {
	x.oldN--
	if x.oldN == 0 {
		x.old = nil
		x.migrated = 0
	}
}

// grow freezes the active table and installs one of twice the size.
// Entries drain into the new table incrementally via migrate.
func (x *Index) grow() {
	if x.old != nil {
		// Unreachable at migrateChunk's pacing (the frozen table drains
		// long before the active one refills), kept as a safety net: a
		// second growth may not start until the first has finished.
		x.migrate(len(x.old))
	}
	x.old = x.slots
	x.oldShift, x.oldN = x.shift, x.n
	x.migrated = 0
	x.alloc(64 - x.shift + 1)
}

// migrate scans up to limit frozen slots, re-homing live entries into the
// active table and tombstoning their frozen slots.
func (x *Index) migrate(limit int) {
	for limit > 0 && x.old != nil {
		if x.migrated >= len(x.old) {
			// Every slot scanned; only tombstones remain.
			x.old = nil
			x.oldN, x.migrated = 0, 0
			return
		}
		s := &x.old[x.migrated]
		if s.val != None && s.val != tombstone {
			x.insertFresh(s.key, s.val)
			s.val = tombstone
			x.migrated++
			x.dropOldEntry()
		} else {
			x.migrated++
		}
		limit--
	}
}

// insertFresh places a key known to be absent from the active table. The
// active table is sized for the whole frozen population, so migration
// inserts need no growth check.
func (x *Index) insertFresh(key uint64, h Handle) {
	mask := uint64(len(x.slots)) - 1
	i := indexSlot(key, x.shift)
	for x.slots[i].val != None {
		i = (i + 1) & mask
	}
	x.slots[i] = indexEntry{key: key, val: h}
	x.n++
}

// backshift deletes active-table slot i by shifting the following probe
// run backward (Robin Hood style), so probe chains stay dense and the
// active table never holds tombstones.
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
