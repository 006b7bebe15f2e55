package sim

import (
	"fmt"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/trace"
)

// Options controls a replay.
type Options struct {
	// WarmupFrac is the fraction of requests excluded from the reported
	// miss ratios while the cache fills. Typical: 0.2.
	WarmupFrac float64
	// Meter enables resource metering (wall time, peak heap). Metering
	// samples runtime.MemStats every 65 536 requests, which perturbs
	// throughput, so it is off unless a resource figure asks for it.
	Meter bool
}

// meterEvery is the MemStats sampling period in requests when metering.
const meterEvery = 1 << 16

// Result summarises a replay.
type Result struct {
	Policy   string
	Trace    string
	Requests int

	// Measured over the post-warmup region.
	Hits        int
	Misses      int
	BytesHit    int64
	BytesMissed int64

	// Resource metrics (only when Options.Meter).
	WallSeconds  float64
	TPS          float64 // requests per wall second
	PeakHeapMiB  float64 // max HeapAlloc observed, MiB
	NsPerRequest float64
}

// MissRatio returns the object miss ratio over the measured region.
func (r Result) MissRatio() float64 {
	total := r.Hits + r.Misses
	if total == 0 {
		return 0
	}
	return float64(r.Misses) / float64(total)
}

// ByteMissRatio returns the byte miss ratio over the measured region.
func (r Result) ByteMissRatio() float64 {
	total := r.BytesHit + r.BytesMissed
	if total == 0 {
		return 0
	}
	return float64(r.BytesMissed) / float64(total)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-14s %-7s miss=%6.2f%% byteMiss=%6.2f%%",
		r.Policy, r.Trace, 100*r.MissRatio(), 100*r.ByteMissRatio())
}

// Run replays tr against p and returns the collected metrics.
func Run(tr *trace.Trace, p cache.Policy, opts Options) Result {
	res := Result{Policy: p.Name(), Trace: tr.Name, Requests: len(tr.Requests)}
	warm := int(opts.WarmupFrac * float64(len(tr.Requests)))
	var (
		peakHeap uint64
		start    time.Time
	)
	if opts.Meter {
		runtime.GC()
		start = time.Now() // metering only: feeds Mreq/s and ns/req, never a cache decision
	}
	for i, req := range tr.Requests {
		hit := p.Access(req)
		if i >= warm {
			if hit {
				res.Hits++
				res.BytesHit += req.Size
			} else {
				res.Misses++
				res.BytesMissed += req.Size
			}
		}
		if opts.Meter && (i+1)%meterEvery == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peakHeap {
				peakHeap = ms.HeapAlloc
			}
		}
	}
	if opts.Meter {
		elapsed := time.Since(start) // metering only: feeds Mreq/s and ns/req, never a cache decision
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
		res.WallSeconds = elapsed.Seconds()
		if res.WallSeconds > 0 {
			res.TPS = float64(len(tr.Requests)) / res.WallSeconds
		}
		if len(tr.Requests) > 0 {
			res.NsPerRequest = float64(elapsed.Nanoseconds()) / float64(len(tr.Requests))
		}
		res.PeakHeapMiB = float64(peakHeap) / (1 << 20)
	}
	return res
}
