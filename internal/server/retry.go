package server

import (
	"context"
	"sync/atomic"
	"time"
)

// retryPolicy bounds one fill source's fetch behaviour: every attempt
// gets its own timeout, failed attempts retry with exponential backoff
// from the base delay, and the attempt count is capped at 1+retries.
// The origin and peer-fill paths share this one implementation (they
// differ only in their budgets), so "a dead upstream cannot stall a
// request past its per-attempt budget" is a single property with a
// single regression test (TestDeadPeerCannotStallRequest) instead of
// two drifting copies.
type retryPolicy struct {
	// timeout bounds each attempt (<= 0: no per-attempt timeout).
	timeout time.Duration
	// retries is the number of attempts after the first (>= 0).
	retries int
	// backoff is the delay before the first retry, doubling per
	// attempt.
	backoff time.Duration
}

// budget returns the worst-case wall time boundedFetch can consume
// under pol: every attempt timing out plus every backoff sleep. Tests
// assert against it; a stalled upstream must not hold a request longer.
func (pol retryPolicy) budget() time.Duration {
	d := pol.timeout * time.Duration(pol.retries+1)
	for a := 0; a < pol.retries; a++ {
		d += pol.backoff << a
	}
	return d
}

// fetchCounters receives a bounded fetch's observable outcomes; any
// field may be nil.
type fetchCounters struct {
	attempts *atomic.Int64 // incremented per attempt
	errors   *atomic.Int64 // incremented per failed attempt
	retries  *atomic.Int64 // incremented per retry taken
}

func bump(c *atomic.Int64) {
	if c != nil {
		c.Add(1)
	}
}

// boundedFetch performs one retried fetch of key from o under pol:
// each attempt is bounded by pol.timeout, failures back off
// exponentially, and a cancelled ctx aborts the backoff wait
// immediately. It returns the first successful attempt's result or the
// last failure.
func boundedFetch(ctx context.Context, o Origin, key uint64, size int64, pol retryPolicy, c fetchCounters) flightResult {
	var last flightResult
	for attempt := 0; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if pol.timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, pol.timeout)
		}
		bump(c.attempts)
		body, objSize, err := o.Fetch(actx, key, size)
		cancel()
		if err == nil {
			return flightResult{body: body, size: objSize}
		}
		bump(c.errors)
		last = flightResult{err: err}
		if attempt >= pol.retries {
			return last
		}
		bump(c.retries)
		backoff := pol.backoff << attempt
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			last.err = ctx.Err()
			return last
		case <-t.C:
		}
	}
}
