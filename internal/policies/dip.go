package policies

import "github.com/scip-cache/scip/internal/cache"

// DIP is the dynamic insertion policy (Qureshi et al.): set dueling
// between MIP and BIP with a saturating policy-selection counter. For a
// single queue the dueling sets become sampled ghost caches
// (cache.DuelMonitor); PSEL accumulates their per-window verdicts and the
// winning expert drives insertions.
type DIP struct {
	monitor *cache.DuelMonitor
	bip     *BIP
	psel    int // positive favours MIP, negative favours BIP
	reqs    int
}

// DIP's dueling window in requests and the bound of its saturating
// PSEL counter.
const (
	dipWindow  = 4096
	dipPSELMax = 32
)

// NewDIP returns a DIP for a cache of capBytes capacity; seed fixes its
// BIP expert's PRNG.
func NewDIP(capBytes int64, seed int64) *DIP {
	return &DIP{
		monitor: cache.NewDuelMonitor(capBytes, 1.0/8, 7),
		bip:     NewBIP(seed),
	}
}

// Name implements cache.InsertionPolicy.
func (d *DIP) Name() string { return "DIP" }

// OnAccess implements cache.InsertionPolicy.
func (d *DIP) OnAccess(req cache.Request, hit bool) {
	d.monitor.Observe(req)
	d.reqs++
	if d.reqs%dipWindow == 0 {
		v := d.monitor.Verdict()
		switch {
		case v > 0 && d.psel < dipPSELMax:
			d.psel++
		case v < 0 && d.psel > -dipPSELMax:
			d.psel--
		}
	}
}

// ChooseInsert implements cache.InsertionPolicy: follow the dueling
// winner (MIP when PSEL >= 0, BIP otherwise).
func (d *DIP) ChooseInsert(req cache.Request) cache.Position {
	if d.psel >= 0 {
		return cache.MRU
	}
	return d.bip.ChooseInsert(req)
}

// ChoosePromote implements cache.InsertionPolicy (DIP promotes to MRU).
func (d *DIP) ChoosePromote(cache.Request) cache.Position { return cache.MRU }

// OnEvict implements cache.InsertionPolicy.
func (d *DIP) OnEvict(cache.EvictInfo) {}
