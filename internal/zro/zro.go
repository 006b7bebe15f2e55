package zro

import (
	"math"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/trace"
)

// Labels holds per-request-index roles and occurrence labels.
type Labels struct {
	// IsInsertion marks requests that missed and inserted an object.
	IsInsertion []bool
	// IsHit marks requests that hit.
	IsHit []bool
	// ZRO marks insertion events later resolved as ZRO occurrences.
	ZRO []bool
	// PZRO marks hit events later resolved as P-ZRO occurrences.
	PZRO []bool
	// AZRO marks ZRO occurrences whose object was hit again later.
	AZRO []bool
	// APZRO marks P-ZRO occurrences whose object was hit again later.
	APZRO []bool
	// Resolved marks events whose residency outcome is known.
	Resolved []bool
}

// Summary aggregates a labelling pass (all counts are over resolved
// events only, except the miss ratio which covers the whole replay).
type Summary struct {
	Insertions int
	ZROs       int
	AZROs      int
	Hits       int
	PZROs      int
	APZROs     int
	MissRatio  float64
}

// ZROFrac returns the proportion of ZROs among missing objects
// (Figure 1a).
func (s Summary) ZROFrac() float64 { return frac(s.ZROs, s.Insertions) }

// AZROFrac returns the proportion of A-ZROs among ZROs (Figure 1c).
func (s Summary) AZROFrac() float64 { return frac(s.AZROs, s.ZROs) }

// PZROFrac returns the proportion of P-ZROs among hit objects
// (Figure 1d).
func (s Summary) PZROFrac() float64 { return frac(s.PZROs, s.Hits) }

// APZROFrac returns the proportion of A-P-ZROs among P-ZROs (Figure 1f).
func (s Summary) APZROFrac() float64 { return frac(s.APZROs, s.PZROs) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type objState struct {
	lastPlacement int
	pendingZRO    []int32
	pendingPZRO   []int32
}

// Analyze replays tr under plain LRU with capBytes capacity and returns
// the occurrence labels and summary.
func Analyze(tr *trace.Trace, capBytes int64) (*Labels, Summary) {
	n := len(tr.Requests)
	lb := &Labels{
		IsInsertion: make([]bool, n),
		IsHit:       make([]bool, n),
		ZRO:         make([]bool, n),
		PZRO:        make([]bool, n),
		AZRO:        make([]bool, n),
		APZRO:       make([]bool, n),
		Resolved:    make([]bool, n),
	}
	c := cache.NewLRU(capBytes)
	states := make(map[uint64]*objState, 1<<12)
	var misses int
	c.EvictHook = func(e *cache.Entry) {
		st := states[e.Key]
		if st == nil {
			return
		}
		idx := st.lastPlacement
		lb.Resolved[idx] = true
		if e.Hits == 0 {
			// The insertion was never rewarded: ZRO occurrence.
			lb.ZRO[idx] = true
			st.pendingZRO = append(st.pendingZRO, int32(idx))
		} else {
			// The final hit was never followed by another: P-ZRO.
			lb.PZRO[idx] = true
			st.pendingPZRO = append(st.pendingPZRO, int32(idx))
		}
	}
	for i, req := range tr.Requests {
		hit := c.Contains(req.Key)
		if hit {
			lb.IsHit[i] = true
			st := states[req.Key]
			// The previous placement of this residency is validated.
			lb.Resolved[st.lastPlacement] = true
			// Earlier ZRO/P-ZRO occurrences of this object degrade to
			// their A- variants: the object is being hit in the cache.
			for _, z := range st.pendingZRO {
				lb.AZRO[z] = true
			}
			for _, z := range st.pendingPZRO {
				lb.APZRO[z] = true
			}
			st.pendingZRO = st.pendingZRO[:0]
			st.pendingPZRO = st.pendingPZRO[:0]
			st.lastPlacement = i
		} else {
			misses++
			if req.Size <= capBytes && req.Size > 0 {
				lb.IsInsertion[i] = true
				st := states[req.Key]
				if st == nil {
					st = &objState{}
					states[req.Key] = st
				}
				st.lastPlacement = i
			}
		}
		c.Access(req)
	}
	var sum Summary
	for i := 0; i < n; i++ {
		if !lb.Resolved[i] {
			continue
		}
		switch {
		case lb.IsInsertion[i]:
			sum.Insertions++
			if lb.ZRO[i] {
				sum.ZROs++
				if lb.AZRO[i] {
					sum.AZROs++
				}
			}
		case lb.IsHit[i]:
			sum.Hits++
			if lb.PZRO[i] {
				sum.PZROs++
				if lb.APZRO[i] {
					sum.APZROs++
				}
			}
		}
	}
	if n > 0 {
		sum.MissRatio = float64(misses) / float64(n)
	}
	return lb, sum
}

// oracleIns places occurrences with no near-future reuse at the LRU
// position during an OracleReplay. Its reuse horizon adapts online: an
// MRU-placed object survives until the cache has turned over once, so the
// horizon is capacity divided by the rate at which bytes enter the MRU
// position. The treatment itself slows that rate (ZROs and P-ZROs stop
// passing through the full queue), lengthening the horizon — the
// interaction §2.2 of the paper calls out — and the rate-based estimate
// tracks it with stable negative feedback.
type oracleIns struct {
	next     []int
	horizon  float64
	minH     float64
	capBytes int64
	useZRO   bool
	usePZRO  bool
	limitIdx int
	i        int

	windowStart    int
	windowMRUBytes int64
}

const oracleWindow = 1000

func (o *oracleIns) Name() string { return "Oracle" }

// dead reports whether the object requested at the current index will not
// be requested again within the horizon — the self-consistent ZRO/P-ZRO
// criterion.
func (o *oracleIns) dead() bool {
	nxt := o.next[o.i]
	return nxt < 0 || float64(nxt-o.i) > o.horizon
}

func (o *oracleIns) ChooseInsert(req cache.Request) cache.Position {
	if o.useZRO && o.i < o.limitIdx && o.dead() {
		return cache.LRU
	}
	o.windowMRUBytes += req.Size
	return cache.MRU
}

func (o *oracleIns) ChoosePromote(req cache.Request) cache.Position {
	if o.usePZRO && o.i < o.limitIdx && o.dead() {
		return cache.LRU
	}
	return cache.MRU
}

func (o *oracleIns) OnEvict(cache.EvictInfo) {}

func (o *oracleIns) OnAccess(cache.Request, bool) {
	if o.i-o.windowStart < oracleWindow {
		return
	}
	if o.windowMRUBytes > 0 {
		h := float64(o.capBytes) * oracleWindow / float64(o.windowMRUBytes)
		if h < o.minH {
			h = o.minH
		}
		if max := float64(len(o.next)); h > max {
			h = max
		}
		// Smooth across windows.
		o.horizon += 0.5 * (h - o.horizon)
	}
	o.windowStart = o.i
	o.windowMRUBytes = 0
}

// MeanResidency replays tr under plain LRU and returns the mean number of
// requests an inserted object stays cached before eviction — the natural
// horizon for the theoretical ZRO criterion.
func MeanResidency(tr *trace.Trace, capBytes int64) int {
	c := cache.NewLRU(capBytes)
	insertIdx := make(map[uint64]int, 1<<12)
	var sum, n float64
	cur := 0
	c.EvictHook = func(e *cache.Entry) {
		if ins, ok := insertIdx[e.Key]; ok {
			sum += float64(cur - ins)
			n++
			delete(insertIdx, e.Key)
		}
	}
	for i, req := range tr.Requests {
		cur = i
		if !c.Contains(req.Key) && req.Size > 0 && req.Size <= capBytes {
			insertIdx[req.Key] = i
		}
		c.Access(req)
	}
	if n == 0 {
		return len(tr.Requests)
	}
	return int(sum / n)
}

// OracleReplay replays tr with LRU victim selection, placing insertions
// (useZRO) and/or promotions (usePZRO) of objects with no reuse within the
// horizon at the LRU position, for the first fracTop of the access
// sequence ("the top of the access sequence" in the paper's Figure 3).
// It returns the resulting miss ratio; fracTop = 0 degenerates to plain
// LRU. The future-knowledge criterion is used instead of the replay
// labels because index-aligned labels lose their meaning once placements
// change the hit/miss pattern — the interaction §2.2 of the paper calls
// out. The horizon is MeanResidency(tr, capBytes).
func OracleReplay(tr *trace.Trace, capBytes int64, useZRO, usePZRO bool, fracTop float64) float64 {
	horizon := MeanResidency(tr, capBytes)
	ins := &oracleIns{
		next:     tr.NextOccurrences(),
		horizon:  float64(horizon),
		minH:     float64(horizon),
		capBytes: capBytes,
		useZRO:   useZRO,
		usePZRO:  usePZRO,
		limitIdx: int(fracTop * float64(len(tr.Requests))),
	}
	c := cache.NewQueueCache("oracle", capBytes, ins)
	misses := 0
	for i, req := range tr.Requests {
		ins.i = i
		if !c.Access(req) {
			misses++
		}
	}
	if len(tr.Requests) == 0 {
		return 0
	}
	return float64(misses) / float64(len(tr.Requests))
}

// Event is one feature vector of the Figure-4 dataset.
type Event struct {
	// Index is the request index the event describes.
	Index int
	// Insertion distinguishes miss-insertion events from hit events.
	Insertion bool
	// Features: log2(size), log2(1+gap since the object's previous
	// access in requests), log2(1+accesses so far), log2(1+mean
	// inter-arrival), hits in current residency, log2(1+requests since
	// insertion).
	Features []float64
}

// CollectEvents replays tr under LRU and emits every sampleEvery-th
// resolved-eligible event with its features; callers join them with
// Labels to build classification datasets.
func CollectEvents(tr *trace.Trace, capBytes int64, sampleEvery int) []Event {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	type objFeat struct {
		count     int
		lastIdx   int
		sumGap    float64
		insertIdx int
		residHits int
	}
	feats := make(map[uint64]*objFeat, 1<<12)
	c := cache.NewLRU(capBytes)
	var events []Event
	for i, req := range tr.Requests {
		hit := c.Contains(req.Key)
		f := feats[req.Key]
		if f == nil {
			f = &objFeat{lastIdx: -1}
			feats[req.Key] = f
		}
		gap := 0.0
		if f.lastIdx >= 0 {
			gap = float64(i - f.lastIdx)
			f.sumGap += gap
		}
		meanGap := 0.0
		if f.count > 1 {
			meanGap = f.sumGap / float64(f.count-1)
		}
		if hit {
			f.residHits++
		} else {
			f.residHits = 0
			f.insertIdx = i
		}
		if i%sampleEvery == 0 && (hit || (req.Size <= capBytes && req.Size > 0)) {
			events = append(events, Event{
				Index:     i,
				Insertion: !hit,
				Features: []float64{
					math.Log2(float64(req.Size) + 1),
					math.Log2(gap + 1),
					math.Log2(float64(f.count) + 1),
					math.Log2(meanGap + 1),
					float64(f.residHits),
					math.Log2(float64(i-f.insertIdx) + 1),
				},
			})
		}
		f.count++
		f.lastIdx = i
		c.Access(req)
	}
	return events
}
