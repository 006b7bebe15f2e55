package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed request of an open-loop phase.
type sample struct {
	due  time.Duration // scheduled send time, offset from the phase start
	late time.Duration // due → first request byte written (generator lateness + queueing for a connection)
	lat  time.Duration // due → last response body byte
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// windowedQuantiles buckets values by their due time into windows of
// width win, takes each window's qs quantiles and returns, per q, the
// median across windows in microseconds. A trailing window shorter than
// half of win is folded away so a sliver of samples cannot vote.
func windowedQuantiles(samples []sample, span, win time.Duration, value func(sample) time.Duration, qs ...float64) []float64 {
	nwin := int((span + win/2) / win)
	if nwin < 1 {
		nwin = 1
	}
	buckets := make([][]time.Duration, nwin)
	for _, s := range samples {
		i := int(s.due / win)
		if i >= nwin {
			i = nwin - 1
		}
		buckets[i] = append(buckets[i], value(s))
	}
	out := make([]float64, len(qs))
	perWin := make([]float64, 0, nwin)
	for k, q := range qs {
		perWin = perWin[:0]
		for _, b := range buckets {
			if len(b) == 0 {
				continue
			}
			if k == 0 {
				sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			}
			perWin = append(perWin, float64(quantile(b, q))/float64(time.Microsecond))
		}
		out[k] = median(perWin)
	}
	return out
}

func latOf(s sample) time.Duration  { return s.lat }
func lateOf(s sample) time.Duration { return s.late }
