package zro

import "math/bits"

// onlineClasses buckets the online estimator by log2 object size, the
// same granularity as SCIP's contextual weight pairs: size is the
// strongest conditioning signal available at admission time.
const onlineClasses = 16

// onlineMinObs is the evidence count before a class estimate is trusted
// over the prior.
const onlineMinObs = 8

func onlineClass(size int64) int {
	c := bits.Len64(uint64(size)) - 5 // sizes < 32B share class 0
	if c < 0 {
		c = 0
	}
	if c >= onlineClasses {
		c = onlineClasses - 1
	}
	return c
}

// OnlineEstimator tracks, per log2 size class, an exponentially weighted
// estimate of the probability that an inserted object is reused before
// leaving the cache — the online counterpart of 1 − ZROFrac from the
// offline Analyze pass. Evidence comes from the hosting cache's
// residency outcomes: an eviction with no hits is a ZRO occurrence
// (reuse did not happen), any resident hit is the positive outcome. The
// EWMA lets the estimate track workload drift instead of averaging over
// the whole replay. Not safe for concurrent use.
type OnlineEstimator struct {
	// Alpha is the EWMA step per observation (default 0.02).
	Alpha float64
	// Prior is returned for classes with too little evidence
	// (default 0.5: no opinion).
	Prior float64

	est  [onlineClasses]float64
	seen [onlineClasses]int
}

// NewOnlineEstimator returns an estimator with the default EWMA step.
func NewOnlineEstimator() *OnlineEstimator {
	e := &OnlineEstimator{Alpha: 0.02, Prior: 0.5}
	for i := range e.est {
		e.est[i] = e.Prior
	}
	return e
}

// Observe records one resolved residency outcome for an object of the
// given size: reused=false for a never-hit eviction (ZRO), reused=true
// for a residency that produced a hit.
func (e *OnlineEstimator) Observe(size int64, reused bool) {
	c := onlineClass(size)
	y := 0.0
	if reused {
		y = 1
	}
	e.est[c] += e.Alpha * (y - e.est[c])
	if e.seen[c] < onlineMinObs {
		e.seen[c]++
	}
}

// Likelihood returns the estimated reuse probability for an object of
// the given size, in [0, 1]. Classes without enough evidence return the
// prior.
func (e *OnlineEstimator) Likelihood(size int64) float64 {
	c := onlineClass(size)
	if e.seen[c] < onlineMinObs {
		return e.Prior
	}
	return e.est[c]
}
