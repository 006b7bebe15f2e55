package cache

// lipGhost is the fixed LIP policy used by the dueling monitor's second
// ghost: missing objects enter at the LRU position, hits promote to MRU.
type lipGhost struct{}

func (lipGhost) Name() string                   { return "LIP" }
func (lipGhost) ChooseInsert(Request) Position  { return LRU }
func (lipGhost) ChoosePromote(Request) Position { return MRU }
func (lipGhost) OnEvict(EvictInfo)              {}
func (lipGhost) OnAccess(Request, bool)         {}

// DuelMonitor runs two small sampled ghost caches — one with pure MRU
// insertion (plain LRU) and one with pure LRU insertion (LIP) — over a
// hash sample of the traffic and periodically reports which insertion
// expert actually produces more hits. It is the single-queue analogue of
// DIP's set dueling: the damage a ZRO flood does to the MRU monitor shows
// up in the monitor's own hit count, a counterfactual signal per-object
// ghost lists cannot provide.
type DuelMonitor struct {
	mru, lip   *QueueCache
	hitA, hitB int
	samples    int
	mask       uint64
}

// NewDuelMonitor creates dueling monitors. Each ghost holds ghostFrac of
// capBytes and observes keys whose hash lands in 1/(mask+1) of the space
// (mask must be 2^k−1; the ghost capacity should use the same fraction so
// reuse distances scale consistently).
func NewDuelMonitor(capBytes int64, ghostFrac float64, mask uint64) *DuelMonitor {
	gb := int64(ghostFrac * float64(capBytes))
	if gb < 1 {
		gb = 1
	}
	return &DuelMonitor{
		mru:  NewLRU(gb),
		lip:  NewQueueCache("ghost-LIP", gb, lipGhost{}),
		mask: mask,
	}
}

// Observe feeds a request to the monitors if it falls in the sample.
func (d *DuelMonitor) Observe(req Request) {
	// Cheap multiplicative hash so sampling is independent of key layout.
	if (req.Key*0x9E3779B97F4A7C15)>>56&d.mask != 0 {
		return
	}
	d.samples++
	if d.mru.Access(req) {
		d.hitA++
	}
	if d.lip.Access(req) {
		d.hitB++
	}
}

// Verdict returns the normalised hit-count difference in [-1, 1]: positive
// favours MRU insertion, negative favours LRU insertion. The counters are
// reset for the next window.
func (d *DuelMonitor) Verdict() float64 {
	total := d.hitA + d.hitB
	var v float64
	if total > 0 {
		v = float64(d.hitA-d.hitB) / float64(total)
	}
	d.hitA, d.hitB, d.samples = 0, 0, 0
	return v
}
