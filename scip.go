package scip

import (
	"github.com/scip-cache/scip/internal/belady"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/trace"
)

// Core request/policy model.
type (
	// Request is a single object access (time, key, size in bytes).
	Request = cache.Request
	// Policy is a full cache replacement algorithm.
	Policy = cache.Policy
	// InsertionPolicy decides queue positions for missing and hit
	// objects; SCIP implements it.
	InsertionPolicy = cache.InsertionPolicy
	// Position is a queue insertion position (MRU or LRU).
	Position = cache.Position
	// SCIP is the learned insertion/promotion policy itself.
	SCIP = core.SCIP
	// Option configures a SCIP instance.
	Option = core.Option
	// Trace is an in-memory access trace.
	Trace = trace.Trace
	// TraceStats summarises a trace (the paper's Table 1 columns).
	TraceStats = trace.Stats
	// Profile identifies one of the paper's synthetic workload profiles.
	Profile = gen.Profile
	// WorkloadConfig parametrises the synthetic generator.
	WorkloadConfig = gen.Config
	// ReplayOptions controls Replay.
	ReplayOptions = sim.Options
	// ReplayResult reports a replay's metrics.
	ReplayResult = sim.Result
)

// Queue positions.
const (
	MRU = cache.MRU
	LRU = cache.LRU
)

// Workload profiles matching the paper's Table 1.
const (
	CDNT = gen.CDNT
	CDNW = gen.CDNW
	CDNA = gen.CDNA
)

// SCIP options (see the core package for semantics).
var (
	WithSeed            = core.WithSeed
	WithInterval        = core.WithInterval
	WithHistoryFraction = core.WithHistoryFraction
	WithUnifiedModel    = core.WithUnifiedModel
)

// New returns the SCIP insertion/promotion policy for a cache of capBytes
// capacity; plug it into any queue cache via NewQueueCache, or use
// NewCache for the ready-made SCIP-LRU.
func New(capBytes int64, opts ...Option) *SCIP { return core.New(capBytes, opts...) }

// NewSCI returns the SCI ablation (learned insertion, always-MRU
// promotion).
func NewSCI(capBytes int64, opts ...Option) *SCIP { return core.NewSCI(capBytes, opts...) }

// NewCache returns the paper's SCIP-LRU: an LRU victim-selection cache
// driven by SCIP insertion and promotion.
func NewCache(capBytes int64, opts ...Option) Policy { return core.NewCache(capBytes, opts...) }

// NewLRU returns a plain LRU cache (the paper's baseline).
func NewLRU(capBytes int64) Policy { return cache.NewLRU(capBytes) }

// NewQueueCache pairs any insertion policy with an LRU victim-selection
// cache.
func NewQueueCache(name string, capBytes int64, ins InsertionPolicy) Policy {
	return cache.NewQueueCache(name, capBytes, ins)
}

// GenerateProfile produces a synthetic workload for one of the paper's
// profiles at the given scale (1 = the paper's full trace sizes).
func GenerateProfile(p Profile, scale float64, seed int64) (*Trace, error) {
	return gen.Generate(p.Config(scale, seed))
}

// Generate produces a synthetic workload from an explicit configuration.
func Generate(cfg WorkloadConfig) (*Trace, error) { return gen.Generate(cfg) }

// Replay runs a trace through a policy and reports miss ratios and
// optional resource metrics.
func Replay(tr *Trace, p Policy, opts ReplayOptions) ReplayResult { return sim.Run(tr, p, opts) }

// BeladyMissRatio replays the whole trace through Belady's MIN adapted to
// sized objects (evict the furthest next use) and returns its miss ratio:
// the "Belady" column of Figures 8 and 10. With variable sizes it is a
// heuristic, not a lower bound; an online policy can beat it.
func BeladyMissRatio(tr *Trace, capBytes int64) float64 {
	return sim.Run(tr, belady.New(tr, capBytes), sim.Options{}).MissRatio()
}
