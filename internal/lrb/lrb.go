package lrb

import (
	"math"
	"math/rand"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/ml"
)

// Feature layout.
const (
	numDeltas   = 4
	numEDCs     = 8
	NumFeatures = 2 + numDeltas + numEDCs // size, age, deltas, EDCs
)

// objMeta is the feature state for one object in the memory window.
type objMeta struct {
	key      uint64
	size     int64
	lastSeen int64
	deltas   [numDeltas]float64 // most recent first, log2-scaled
	edcs     [numEDCs]float64
	cached   bool
	// demoted marks SCIP-LRU placements: treated as immediate eviction
	// candidates (predicted-infinite distance). The rest were placed at
	// MRU, which OnEvict reports to the insertion policy.
	demoted bool
	// res tracks how the current residency began and residHits counts
	// its hits, for the insertion-policy integration.
	res       cache.Residency
	residHits int
	// storeIdx is the object's slot in the cached-set sampler.
	storeIdx int
}

// pendEntry is a training sample waiting for its label, stored in the
// pending arena and linked to the next sample of the same key by slab
// index (offsets survive slab growth; pointers would not).
type pendEntry struct {
	at   int64
	next int32
	feat [NumFeatures]float64
}

// pendList is the per-key chain of pending samples in sampling order.
// Entries are always looked up with the comma-ok form, so the zero value
// is never confused with a chain starting at slab index 0.
type pendList struct {
	head, tail int32
}

// Option configures an LRB cache.
type Option func(*LRB)

// WithInsertion plugs an insertion/promotion policy (LRB-SCIP /
// LRB-ASC-IP in Figure 12): a cache.LRU decision demotes the object so
// the sampler evicts it first; cache.MRU keeps normal LRB behaviour. Per
// the paper's integration note, the policy can learn from LRB's memory
// window rather than globally.
func WithInsertion(ins cache.InsertionPolicy) Option {
	return func(l *LRB) {
		l.ins = ins
		l.name = "LRB-" + ins.Name()
	}
}

// WithSeed fixes sampling and training randomness.
func WithSeed(seed int64) Option {
	return func(l *LRB) { l.seed = seed }
}

// LRB is the learned cache.
type LRB struct {
	name      string
	cap       int64
	bytes     int64
	evictions int64
	seed      int64
	seq       int64
	meta      map[uint64]*objMeta
	cached    []*objMeta // sampler over cached objects
	metaFree  []*objMeta // recycled window-expired metadata
	rng       *rand.Rand

	pend     map[uint64]pendList
	pendSlab []pendEntry // flat arena behind pend
	pendFree []int32     // free slab slots
	expBuf   []int32     // window-expired samples, sorted before labelling
	trainX   ml.Matrix
	trainY   []float64
	fresh    int
	model    *ml.GBM // nil until first successful training
	gbm      *ml.GBM // the persistent model instance model points at
	featBuf  [NumFeatures]float64

	ins cache.InsertionPolicy
	buf []*objMeta

	// window, maxTrain and trainEvery are lrbWindow, lrbMaxTrain and
	// lrbTrainEvery; tests shrink them.
	window     int64
	maxTrain   int
	trainEvery int
}

const (
	// lrbWindow is the memory window in requests.
	lrbWindow = 1 << 17
	// lrbSampleSize is the eviction sample.
	lrbSampleSize = 64
	// lrbSampleEvery subsamples accesses into training candidates.
	lrbSampleEvery = 8
	// lrbTrainEvery triggers training after this many fresh labels.
	lrbTrainEvery = 2048
	// lrbMaxTrain caps the training set.
	lrbMaxTrain = 8192
)

var _ cache.Policy = (*LRB)(nil)

// New returns an LRB cache of capBytes capacity.
func New(capBytes int64, opts ...Option) *LRB {
	l := &LRB{
		name:       "LRB",
		cap:        capBytes,
		meta:       make(map[uint64]*objMeta, 1<<12),
		pend:       make(map[uint64]pendList, 1<<12),
		window:     lrbWindow,
		maxTrain:   lrbMaxTrain,
		trainEvery: lrbTrainEvery,
	}
	for _, o := range opts {
		o(l)
	}
	l.rng = rand.New(rand.NewSource(l.seed + 907))
	return l
}

// Name implements cache.Policy.
func (l *LRB) Name() string { return l.name }

// Capacity implements cache.Policy.
func (l *LRB) Capacity() int64 { return l.cap }

// Used implements cache.Policy.
func (l *LRB) Used() int64 { return l.bytes }

// Trained reports whether a model has been fit (diagnostics).
func (l *LRB) Trained() bool { return l.model != nil }

// Evictions implements cache.EvictionCounter.
func (l *LRB) Evictions() int64 { return l.evictions }

// fillFeatures writes m's feature vector at the current sequence time
// into dst (length NumFeatures).
func (l *LRB) fillFeatures(m *objMeta, dst []float64) {
	dst[0] = math.Log2(float64(m.size) + 1)
	dst[1] = math.Log2(float64(l.seq-m.lastSeen) + 1)
	copy(dst[2:2+numDeltas], m.deltas[:])
	copy(dst[2+numDeltas:], m.edcs[:])
}

// touch updates the feature state of an object on access.
func (l *LRB) touch(m *objMeta) {
	gap := float64(l.seq - m.lastSeen)
	copy(m.deltas[1:], m.deltas[:numDeltas-1])
	m.deltas[0] = math.Log2(gap + 1)
	for i := range m.edcs {
		half := math.Exp2(float64(9 + i))
		m.edcs[i] = 1 + m.edcs[i]*math.Exp2(-gap/half)
	}
	m.lastSeen = l.seq
}

// newMeta returns a fully initialised objMeta, recycling window-expired
// structs when available.
func (l *LRB) newMeta(key uint64, size int64) *objMeta {
	if n := len(l.metaFree); n > 0 {
		m := l.metaFree[n-1]
		l.metaFree = l.metaFree[:n-1]
		*m = objMeta{key: key, size: size, lastSeen: l.seq, storeIdx: -1}
		return m
	}
	return &objMeta{key: key, size: size, lastSeen: l.seq, storeIdx: -1}
}

// allocPend returns a free pending-arena slot.
func (l *LRB) allocPend() int32 {
	if n := len(l.pendFree); n > 0 {
		id := l.pendFree[n-1]
		l.pendFree = l.pendFree[:n-1]
		return id
	}
	l.pendSlab = append(l.pendSlab, pendEntry{})
	return int32(len(l.pendSlab) - 1)
}

// Access implements cache.Policy.
func (l *LRB) Access(req cache.Request) bool {
	l.seq++
	if l.seq%l.window == 0 {
		l.pruneWindow()
	}
	m, known := l.meta[req.Key]
	hit := known && m.cached
	if l.ins != nil {
		l.ins.OnAccess(req, hit)
	}
	// Label any pending training samples for this object, in sampling
	// order (the chain preserves append order).
	if ps, ok := l.pend[req.Key]; ok {
		for id := ps.head; id != -1; {
			e := &l.pendSlab[id]
			l.label(e.feat[:], float64(l.seq-e.at))
			next := e.next
			l.pendFree = append(l.pendFree, id)
			id = next
		}
		delete(l.pend, req.Key)
	}
	if !known {
		m = l.newMeta(req.Key, req.Size)
		l.meta[req.Key] = m
	} else {
		l.touch(m)
	}
	// Subsample accesses into unlabeled training candidates.
	if l.seq%lrbSampleEvery == 0 {
		id := l.allocPend()
		e := &l.pendSlab[id] // take the pointer after alloc: the slab may have grown
		e.at = l.seq
		e.next = -1
		l.fillFeatures(m, e.feat[:])
		if ps, ok := l.pend[req.Key]; ok {
			l.pendSlab[ps.tail].next = id
			ps.tail = id
			l.pend[req.Key] = ps
		} else {
			l.pend[req.Key] = pendList{head: id, tail: id}
		}
	}
	if hit {
		m.residHits++
		if obs, ok := l.ins.(cache.ResidencyObserver); ok && l.ins != nil {
			obs.OnResidentHit(req, !m.demoted, m.res, m.residHits)
		}
		m.demoted = l.ins != nil && l.ins.ChoosePromote(req) == cache.LRU
		if m.res == cache.ResInserted {
			m.res = cache.ResFirstHit
		} else {
			m.res = cache.ResRepeat
		}
		m.residHits = 0
		return true
	}
	if req.Size > l.cap || req.Size <= 0 {
		return false
	}
	for l.bytes+req.Size > l.cap {
		l.evictOne()
	}
	m.cached = true
	m.residHits = 0
	m.res = cache.ResInserted
	m.demoted = l.ins != nil && l.ins.ChooseInsert(req) == cache.LRU
	m.storeIdx = len(l.cached)
	l.cached = append(l.cached, m)
	l.bytes += req.Size
	return false
}

// label adds a completed training sample and triggers training. feat is
// copied into the flat training matrix.
func (l *LRB) label(feat []float64, dist float64) {
	if l.trainX.Rows() >= l.maxTrain {
		n := l.maxTrain / 2
		rows := l.trainX.Rows()
		l.trainX.TrimFront(n)
		copy(l.trainY, l.trainY[rows-n:])
		l.trainY = l.trainY[:n]
	}
	l.trainX.AppendRow(feat)
	l.trainY = append(l.trainY, math.Log2(dist+1))
	l.fresh++
	if l.fresh >= l.trainEvery && l.trainX.Rows() >= 512 {
		l.fresh = 0
		if l.gbm == nil {
			l.gbm = &ml.GBM{Squared: true, Trees: 30, Depth: 4, LR: 0.2, MinLeaf: 16}
		}
		// Refitting in place reuses the ensemble, score and histogram
		// buffers; FitRegression only fails on an empty matrix, which
		// the >= 512 row guard excludes.
		if err := l.gbm.FitRegression(&l.trainX, l.trainY); err == nil {
			l.model = l.gbm
		}
	}
}

// predictDistance scores a cached candidate; higher means safer to evict.
func (l *LRB) predictDistance(m *objMeta) float64 {
	if m.demoted {
		return math.Inf(1)
	}
	if l.model == nil {
		// Untrained: fall back to recency (oldest last-seen evicted
		// first), mirroring LRB's LRU warm-up phase.
		return float64(l.seq - m.lastSeen)
	}
	l.fillFeatures(m, l.featBuf[:])
	return l.model.Predict(l.featBuf[:])
}

func (l *LRB) evictOne() {
	if len(l.cached) == 0 {
		panic("lrb: evict from empty cache")
	}
	l.buf = l.buf[:0]
	n := lrbSampleSize
	if n > len(l.cached) {
		n = len(l.cached)
	}
	for i := 0; i < n; i++ {
		l.buf = append(l.buf, l.cached[l.rng.Intn(len(l.cached))])
	}
	victim := l.buf[0]
	best := l.predictDistance(victim)
	for _, m := range l.buf[1:] {
		if d := l.predictDistance(m); d > best {
			victim, best = m, d
		}
	}
	l.removeCached(victim)
	l.evictions++
	if l.ins != nil {
		l.ins.OnEvict(cache.EvictInfo{
			Key:         victim.key,
			Size:        victim.size,
			InsertedMRU: !victim.demoted,
			EverHit:     victim.residHits > 0,
			Residency:   victim.res,
		})
	}
}

func (l *LRB) removeCached(m *objMeta) {
	last := len(l.cached) - 1
	idx := m.storeIdx
	l.cached[idx] = l.cached[last]
	l.cached[idx].storeIdx = idx
	l.cached = l.cached[:last]
	m.cached = false
	m.storeIdx = -1
	l.bytes -= m.size
}

// pruneWindow drops metadata and unlabeled samples older than the memory
// window (cached objects always stay).
func (l *LRB) pruneWindow() {
	cut := l.seq - l.window
	for k, m := range l.meta {
		if !m.cached && m.lastSeen < cut {
			delete(l.meta, k)
			// freelist order only selects which recycled struct backs a later object; every field is reinitialised on reuse
			l.metaFree = append(l.metaFree, m)
		}
	}
	// Collect expired samples first and label them in sampling order:
	// label order feeds the training set, and the map's randomised
	// iteration order would otherwise make the trained model — and so
	// LRB's miss ratio — vary between identical runs.
	l.expBuf = l.expBuf[:0]
	for k, ps := range l.pend {
		head, tail := int32(-1), int32(-1)
		for id := ps.head; id != -1; {
			e := &l.pendSlab[id]
			next := e.next
			if e.at >= cut {
				e.next = -1
				if head == -1 {
					head = id
				} else {
					l.pendSlab[tail].next = id
				}
				tail = id
			} else {
				// expBuf is sorted by the unique per-sample .at sequence number below, erasing map order before labelling; TestLRBDeterministic fails without the sort
				l.expBuf = append(l.expBuf, id)
			}
			id = next
		}
		if head == -1 {
			delete(l.pend, k)
		} else {
			l.pend[k] = pendList{head: head, tail: tail}
		}
	}
	sortPendByAt(l.pendSlab, l.expBuf)
	for _, id := range l.expBuf {
		e := &l.pendSlab[id]
		// Window expiry: label with the window length (the relaxed-Belady
		// "beyond boundary" outcome).
		l.label(e.feat[:], float64(l.window)*2)
		l.pendFree = append(l.pendFree, id)
	}
}

// sortPendByAt heapsorts arena ids by their entry's .at sequence number.
// Sampling takes at most one sample per sequence tick, so the keys are
// unique and heapsort's instability cannot affect the resulting order; a
// zero-allocation sort keeps the prune path off the heap (sort.Slice
// would allocate for its closure and interface header).
func sortPendByAt(slab []pendEntry, ids []int32) {
	n := len(ids)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownAt(slab, ids, i, n)
	}
	for end := n - 1; end > 0; end-- {
		ids[0], ids[end] = ids[end], ids[0]
		siftDownAt(slab, ids, 0, end)
	}
}

func siftDownAt(slab []pendEntry, ids []int32, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && slab[ids[child+1]].at > slab[ids[child]].at {
			child++
		}
		if slab[ids[root]].at >= slab[ids[child]].at {
			return
		}
		ids[root], ids[child] = ids[child], ids[root]
		root = child
	}
}
