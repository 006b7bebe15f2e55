package tdc

import (
	"fmt"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/trace"
)

// Config parametrises the hierarchy.
type Config struct {
	// OCCapacity and DCCapacity are the layer capacities in bytes.
	OCCapacity, DCCapacity int64
	// DeployAt is the simulation time (seconds) at which SCIP replaces
	// the LRU insertion policy in both layers; negative disables
	// deployment (pure-LRU baseline run).
	DeployAt int64
	// Seed drives SCIP's bimodal choices.
	Seed int64
}

// The hierarchy's latency model: the base response latency of each layer,
// plus size-dependent transfer time for BTO fetches. The values put the
// pre-deployment operating point in the regime the paper reports (a few
// hundred ms mean latency).
const (
	ocLatencyMs     = 12
	dcLatencyMs     = 90
	originLatencyMs = 1200
	originMsPerMiB  = 220
)

// bucketSeconds is Run's reporting granularity.
const bucketSeconds = 6 * 3600

// Bucket is one reporting interval of the Figure-6 series.
type Bucket struct {
	// StartTime is the bucket's start (seconds).
	StartTime int64
	// Requests served in the bucket.
	Requests int
	// BTOBytes fetched from the origin.
	BTOBytes int64
	// BTORequests that reached the origin.
	BTORequests int
	// LatencySumMs accumulates per-request latency.
	LatencySumMs float64
}

// BTORatio returns the fraction of requests that reached the origin (the
// paper's miss-ratio metric for the deployment).
func (b Bucket) BTORatio() float64 {
	if b.Requests == 0 {
		return 0
	}
	return float64(b.BTORequests) / float64(b.Requests)
}

// MeanLatencyMs returns the bucket's average user access latency.
func (b Bucket) MeanLatencyMs() float64 {
	if b.Requests == 0 {
		return 0
	}
	return b.LatencySumMs / float64(b.Requests)
}

// Result is a full simulation outcome.
type Result struct {
	Buckets []Bucket
	// Deployed marks the bucket index at which SCIP took over (-1 when
	// never deployed).
	Deployed int
}

// aggregate sums a bucket range into one.
func (r *Result) aggregate(from, to int) Bucket {
	var out Bucket
	for _, b := range r.Buckets[from:to] {
		out.Requests += b.Requests
		out.BTOBytes += b.BTOBytes
		out.BTORequests += b.BTORequests
		out.LatencySumMs += b.LatencySumMs
	}
	return out
}

// Before aggregates the pre-deployment buckets (whole run if never
// deployed).
func (r *Result) Before() Bucket {
	if r.Deployed < 0 {
		return r.aggregate(0, len(r.Buckets))
	}
	return r.aggregate(0, r.Deployed)
}

// After aggregates the post-deployment buckets.
func (r *Result) After() Bucket {
	if r.Deployed < 0 || r.Deployed >= len(r.Buckets) {
		return Bucket{}
	}
	return r.aggregate(r.Deployed, len(r.Buckets))
}

// System is the two-layer hierarchy.
type System struct {
	cfg Config
	oc  *cache.QueueCache
	dc  *cache.QueueCache
}

// NewSystem builds the hierarchy with plain LRU layers.
func NewSystem(cfg Config) *System {
	return &System{
		cfg: cfg,
		oc:  cache.NewLRU(cfg.OCCapacity),
		dc:  cache.NewLRU(cfg.DCCapacity),
	}
}

// Deploy switches both layers' insertion policy to SCIP, mirroring the
// production rollout.
func (s *System) Deploy() {
	s.oc.SetInsertion(core.New(s.cfg.OCCapacity, core.WithSeed(s.cfg.Seed+1)))
	s.dc.SetInsertion(core.New(s.cfg.DCCapacity, core.WithSeed(s.cfg.Seed+2)))
}

// Serve processes one request and returns its latency in ms and whether
// it reached the origin.
func (s *System) Serve(req cache.Request) (latencyMs float64, bto bool) {
	if s.oc.Access(req) {
		return ocLatencyMs, false
	}
	if s.dc.Access(req) {
		return dcLatencyMs, false
	}
	transfer := originMsPerMiB * float64(req.Size) / (1 << 20)
	return originLatencyMs + transfer, true
}

// Run replays tr through the hierarchy, deploying SCIP at cfg.DeployAt,
// and reports it in buckets of bucketSeconds.
func Run(tr *trace.Trace, cfg Config) *Result { return run(tr, cfg, bucketSeconds) }

// run is Run with buckets of bucket seconds, for tests.
func run(tr *trace.Trace, cfg Config, bucket int64) *Result {
	sys := NewSystem(cfg)
	res := &Result{Deployed: -1}
	deployed := false
	var cur *Bucket
	var curStart int64 = -1
	for _, req := range tr.Requests {
		if !deployed && cfg.DeployAt >= 0 && req.Time >= cfg.DeployAt {
			sys.Deploy()
			deployed = true
			// The first fully post-deployment bucket is the next one to
			// be created (a bucket in progress at the switch counts as
			// pre-deployment).
			res.Deployed = len(res.Buckets)
		}
		bucketStart := req.Time / bucket * bucket
		if cur == nil || bucketStart != curStart {
			res.Buckets = append(res.Buckets, Bucket{StartTime: bucketStart})
			cur = &res.Buckets[len(res.Buckets)-1]
			curStart = bucketStart
		}
		lat, bto := sys.Serve(req)
		cur.Requests++
		cur.LatencySumMs += lat
		if bto {
			cur.BTORequests++
			cur.BTOBytes += req.Size
		}
	}
	if res.Deployed > len(res.Buckets) {
		res.Deployed = len(res.Buckets)
	}
	return res
}

// Summary renders the before/after comparison like the paper's §5.2.
func (r *Result) Summary() string {
	b, a := r.Before(), r.After()
	return fmt.Sprintf(
		"before: BTO-ratio=%.2f%% latency=%.1f ms | after: BTO-ratio=%.2f%% latency=%.1f ms",
		100*b.BTORatio(), b.MeanLatencyMs(), 100*a.BTORatio(), a.MeanLatencyMs())
}
