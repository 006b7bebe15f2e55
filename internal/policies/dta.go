package policies

import (
	"math"
	"math/bits"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/ml"
)

// DTA is insertion-policy selection by decision-tree analysis (Khan &
// Jiménez). A small regression tree is periodically retrained on recently
// resolved residencies — features of the object at insertion time, target
// "died without reuse" — and insertions the tree predicts dead go to the
// LRU position. The original work trains the tree offline over program
// features; here the tree trains online over the object features
// available to a CDN (size class, recency, frequency).
type DTA struct {
	// Retrain is the retraining period in resolved residencies
	// (default 4096).
	Retrain int
	// Buffer caps the training buffer (default 8192).
	Buffer int
	// Threshold is the predicted-dead score above which insertion goes
	// to LRU (default 0.5).
	Threshold float64

	tree        *ml.RegressionTree
	trained     bool
	bufX        ml.Matrix
	bufY        []float64
	resolved    int
	curFeatures [dtaFeatures]float64

	// Per-object running stats for features.
	lastSeen map[uint64]int64
	freq     map[uint64]int
	// Pending features of currently-resident objects, keyed by object.
	pending map[uint64][dtaFeatures]float64

	req int
}

// NewDTA returns a DTA policy.
func NewDTA() *DTA {
	return &DTA{
		Retrain:   4096,
		Buffer:    8192,
		Threshold: 0.5,
		lastSeen:  make(map[uint64]int64, 1<<12),
		freq:      make(map[uint64]int, 1<<12),
		pending:   make(map[uint64][dtaFeatures]float64, 1<<12),
	}
}

// Name implements cache.InsertionPolicy.
func (d *DTA) Name() string { return "DTA" }

// dtaFeatures is the insertion-time feature count (size class, recency,
// frequency).
const dtaFeatures = 3

func (d *DTA) features(req cache.Request) [dtaFeatures]float64 {
	gap := 0.0
	if last, ok := d.lastSeen[req.Key]; ok {
		gap = float64(d.req) - float64(last)
	}
	return [dtaFeatures]float64{
		float64(bits.Len64(uint64(req.Size))),
		math.Log2(gap + 1),
		math.Log2(float64(d.freq[req.Key]) + 1),
	}
}

// OnAccess implements cache.InsertionPolicy: update per-object stats and
// resolve a residency as live on its first hit. The feature vector for a
// possible insertion is computed before the stats update so it describes
// the object's history excluding the current request.
func (d *DTA) OnAccess(req cache.Request, hit bool) {
	d.req++
	d.curFeatures = d.features(req)
	if hit {
		if f, ok := d.pending[req.Key]; ok {
			d.record(f, 0) // reused: not dead
			delete(d.pending, req.Key)
		}
	}
	d.freq[req.Key]++
	d.lastSeen[req.Key] = int64(d.req)
}

// OnEvict implements cache.InsertionPolicy: an eviction without reuse
// resolves the pending residency as dead.
func (d *DTA) OnEvict(ev cache.EvictInfo) {
	f, ok := d.pending[ev.Key]
	if !ok {
		return
	}
	delete(d.pending, ev.Key)
	if ev.EverHit {
		d.record(f, 0)
	} else {
		d.record(f, 1)
	}
}

func (d *DTA) record(f [dtaFeatures]float64, dead float64) {
	if d.bufX.Rows() >= d.Buffer {
		// Drop the oldest half to keep the buffer fresh without
		// reallocating per sample.
		n := d.Buffer / 2
		rows := d.bufX.Rows()
		d.bufX.TrimFront(n)
		copy(d.bufY, d.bufY[rows-n:])
		d.bufY = d.bufY[:n]
	}
	d.bufX.AppendRow(f[:])
	d.bufY = append(d.bufY, dead)
	d.resolved++
	if d.resolved%d.Retrain == 0 && d.bufX.Rows() >= 256 {
		if d.tree == nil {
			d.tree = &ml.RegressionTree{MaxDepth: 4, MinLeaf: 32}
		}
		// Refitting in place reuses the node array and grow scratch.
		d.tree.Fit(&d.bufX, d.bufY)
		d.trained = true
	}
}

// ChooseInsert implements cache.InsertionPolicy.
func (d *DTA) ChooseInsert(req cache.Request) cache.Position {
	f := d.curFeatures
	d.pending[req.Key] = f
	if d.trained && d.tree.Predict(f[:]) > d.Threshold {
		return cache.LRU
	}
	return cache.MRU
}

// ChoosePromote implements cache.InsertionPolicy (DTA promotes to MRU).
func (d *DTA) ChoosePromote(cache.Request) cache.Position { return cache.MRU }
