package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

// One window out of three is a stall: every latency in it is a hundred
// times the others. The reported percentile is the median across
// windows, so the stall does not decide it.
func TestWindowedQuantilesOutvoteAStall(t *testing.T) {
	const win = time.Second
	var samples []sample
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Duration(i+1) * time.Microsecond
			if w == 1 {
				lat *= 100
			}
			samples = append(samples, sample{due: time.Duration(w)*win + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	q := windowedQuantiles(samples, 3*win, win, latOf, 0.50, 0.99)
	if q[0] != 50 || q[1] != 99 {
		t.Errorf("windowed p50, p99 = %g, %g us; want 50, 99", q[0], q[1])
	}
	// Over all samples at once the stall would own the 99th percentile.
	if all := windowedQuantiles(samples, 3*win, 3*win, latOf, 0.99); all[0] < 1000 {
		t.Errorf("single-window p99 = %g us, expected the stall to show", all[0])
	}
}

// A sliver of a window at the end joins the last full one instead of
// voting on its own.
func TestWindowedQuantilesFoldTrailingSliver(t *testing.T) {
	const win = time.Second
	samples := []sample{
		{due: 100 * time.Millisecond, lat: 10 * time.Microsecond},
		{due: 1100 * time.Millisecond, lat: 20 * time.Microsecond},
		{due: 2050 * time.Millisecond, lat: 9000 * time.Microsecond}, // in the 100 ms sliver
	}
	q := windowedQuantiles(samples, 2100*time.Millisecond, win, latOf, 1.0)
	// Two windows: {10} and {20, 9000}; the median of their maxima.
	if want := (10.0 + 9000.0) / 2; q[0] != want {
		t.Errorf("got %g, want %g", q[0], want)
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver computes.
func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g", got)
	}
	if got, want := spread([]float64{9, 10, 11}), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three values (range) = %g, want %g", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "lat", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "rate", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m          specMetric
		a, b, wide float64
		want       string
	}{
		{lower, 100, 105, 0, "same"},
		{lower, 100, 115, 0, "worse"},
		{lower, 100, 85, 0, "better"},
		{higher, 100, 85, 0, "worse"},
		{higher, 100, 115, 0, "better"},
		{lower, 100, 115, 0.2, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b, c.wide); got != c.want {
			t.Errorf("verdict(%s %g→%g spread %g) = %s, want %s", c.m.Better, c.a, c.b, c.wide, got, c.want)
		}
	}
}
