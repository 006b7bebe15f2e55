package replacement

import (
	"container/heap"
	"math"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/ml"
)

// glGroup is a segment of objects inserted consecutively, the learning
// unit of GL-Cache.
type glGroup struct {
	createdAt int64
	objects   []*glObject
	bytes     int64
	liveBytes int64
	hits      float64 // hits accrued by members, decayed at training
	snapHits  float64 // hits at the last training snapshot
	utility   float64
	sealed    bool
}

type glObject struct {
	key   uint64
	size  int64
	group *glGroup
	dead  bool
}

type groupHeap []*glGroup

func (h groupHeap) Len() int           { return len(h) }
func (h groupHeap) Less(i, j int) bool { return h[i].utility < h[j].utility }
func (h groupHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x any)        { *h = append(*h, x.(*glGroup)) }
func (h *groupHeap) Pop() any          { old := *h; n := len(old); g := old[n-1]; *h = old[:n-1]; return g }

// GLCache is group-level learning (Yang et al., FAST'23): objects are
// grouped into insertion-order segments, a regression model learns each
// group's utility (hits per byte accrued since the last training
// snapshot) from group-level features, and eviction drains the
// lowest-predicted-utility group. Learning whole groups amortises both
// the training and the inference cost that per-object learned policies
// (LRB) pay.
type GLCache struct {
	name   string
	cap    int64
	seq    int64
	bytes  int64
	index  map[uint64]*glObject
	open   *glGroup
	groups []*glGroup
	h      groupHeap
	model  *ml.LinReg // nil until first successful training

	lin     *ml.LinReg // the persistent model instance model points at
	ds      ml.Dataset // reused training buffer
	featBuf [glFeatures]float64
	// trainEvery is glTrainEvery; a test shortens it.
	trainEvery int64
}

const (
	// glFeatures is the group-level feature count.
	glFeatures = 4
	// glTrainEvery is the training period in requests.
	glTrainEvery = 1 << 15
)

var _ cache.Policy = (*GLCache)(nil)

// NewGLCache returns a GL-Cache.
func NewGLCache(capBytes int64) *GLCache {
	g := &GLCache{
		name:       "GL-Cache",
		cap:        capBytes,
		index:      make(map[uint64]*glObject),
		trainEvery: glTrainEvery,
	}
	g.newOpenGroup()
	return g
}

// Name implements cache.Policy.
func (g *GLCache) Name() string { return g.name }

// Capacity implements cache.Policy.
func (g *GLCache) Capacity() int64 { return g.cap }

// Used implements cache.Policy.
func (g *GLCache) Used() int64 { return g.bytes }

// groupTarget returns the segment size in objects: about 1/64th of the
// resident object count, at least 8, so the cache holds roughly 64 groups
// and the learning granularity stays proportional to the cache size.
func (g *GLCache) groupTarget() int {
	t := len(g.index) / 64
	if t < 8 {
		t = 8
	}
	return t
}

func (g *GLCache) newOpenGroup() {
	g.open = &glGroup{createdAt: g.seq}
	g.groups = append(g.groups, g.open)
}

// fillFeatures writes the group-level feature vector into dst (length
// glFeatures).
func (g *GLCache) fillFeatures(gr *glGroup, dst []float64) {
	age := float64(g.seq - gr.createdAt)
	n := float64(len(gr.objects))
	if n == 0 {
		n = 1
	}
	meanSize := float64(gr.bytes) / n
	dst[0] = math.Log2(age + 1)
	dst[1] = math.Log2(meanSize + 1)
	dst[2] = gr.hits / n
	dst[3] = float64(gr.liveBytes) / math.Max(float64(gr.bytes), 1)
}

// Access implements cache.Policy.
func (g *GLCache) Access(req cache.Request) bool {
	g.seq++
	if g.seq%g.trainEvery == 0 {
		g.train()
	}
	if o, ok := g.index[req.Key]; ok {
		o.group.hits++
		return true
	}
	if req.Size > g.cap || req.Size <= 0 {
		return false
	}
	for g.bytes+req.Size > g.cap {
		g.evictOne()
	}
	o := &glObject{key: req.Key, size: req.Size, group: g.open}
	g.open.objects = append(g.open.objects, o)
	g.open.bytes += req.Size
	g.open.liveBytes += req.Size
	g.index[req.Key] = o
	g.bytes += req.Size
	if len(g.open.objects) >= g.groupTarget() {
		g.sealOpen()
	}
	return false
}

// sealOpen closes the open group and makes it evictable.
func (g *GLCache) sealOpen() {
	g.open.sealed = true
	g.open.utility = g.predict(g.open)
	heap.Push(&g.h, g.open)
	g.newOpenGroup()
}

func (g *GLCache) predict(gr *glGroup) float64 {
	if g.model == nil {
		// Untrained: prefer evicting older groups (FIFO-like bootstrap).
		return float64(gr.createdAt)
	}
	g.fillFeatures(gr, g.featBuf[:])
	return g.model.Predict(g.featBuf[:])
}

// evictOne removes one object from the lowest-utility sealed group.
func (g *GLCache) evictOne() {
	for {
		if len(g.h) == 0 {
			// Only the open group remains: seal it so it can drain.
			if len(g.open.objects) == 0 {
				panic("replacement: GL-Cache evict with no objects")
			}
			g.sealOpen()
			continue
		}
		gr := g.h[0]
		// Drain one live object from the group's tail.
		for len(gr.objects) > 0 {
			o := gr.objects[len(gr.objects)-1]
			gr.objects = gr.objects[:len(gr.objects)-1]
			if o.dead {
				continue
			}
			o.dead = true
			gr.liveBytes -= o.size
			delete(g.index, o.key)
			g.bytes -= o.size
			return
		}
		heap.Pop(&g.h) // group fully drained
	}
}

// train fits the utility model on sealed groups: target is the hit rate
// accrued per object since the previous snapshot, features are the group
// descriptors; predictions re-rank the eviction heap.
func (g *GLCache) train() {
	g.ds.X.Reset(glFeatures)
	g.ds.Y = g.ds.Y[:0]
	for _, gr := range g.groups {
		if !gr.sealed || len(gr.objects) == 0 {
			continue
		}
		g.fillFeatures(gr, g.featBuf[:])
		g.ds.Append(g.featBuf[:], (gr.hits-gr.snapHits)/float64(len(gr.objects)))
		gr.snapHits = gr.hits
		gr.hits *= 0.5 // decay so utility tracks recent behaviour
		gr.snapHits *= 0.5
	}
	if g.ds.Len() >= 8 {
		if g.lin == nil {
			g.lin = &ml.LinReg{}
		}
		// Refitting in place reuses the normal-equation buffers; on a
		// singular system the previous weights survive, matching the old
		// keep-the-last-model behaviour.
		if err := g.lin.Fit(&g.ds); err == nil {
			g.model = g.lin
		}
	}
	// Re-rank the heap under the new model.
	for _, gr := range g.h {
		gr.utility = g.predict(gr)
	}
	heap.Init(&g.h)
	// Compact fully drained groups from the bookkeeping slice.
	live := g.groups[:0]
	for _, gr := range g.groups {
		if !gr.sealed || len(gr.objects) > 0 {
			live = append(live, gr)
		}
	}
	g.groups = live
}
