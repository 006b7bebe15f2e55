package stats

import (
	"sync"
	"testing"
	"time"
)

func TestObserveAccessAndSnapshot(t *testing.T) {
	s := New(2)
	s.ObserveAccess(0, 100, true, 500, 3)
	s.ObserveAccess(0, 50, false, 550, 4)
	s.ObserveAccess(1, 200, false, 200, 0)
	snap := s.Snapshot()
	c0 := snap.Shards[0]
	if c0.Requests != 2 || c0.Hits != 1 || c0.BytesRequested != 150 || c0.BytesHit != 100 {
		t.Fatalf("shard 0 counters: %+v", c0)
	}
	if c0.UsedBytes != 550 || c0.Evictions != 4 {
		t.Fatalf("shard 0 gauges: %+v", c0)
	}
	tot := snap.Totals()
	if tot.Requests != 3 || tot.Hits != 1 || tot.UsedBytes != 750 {
		t.Fatalf("totals: %+v", tot)
	}
	if mr := snap.MissRatio(); mr != 2.0/3.0 {
		t.Fatalf("MissRatio = %g", mr)
	}
	wantByte := float64(150+200-100) / float64(150+200)
	if br := snap.ByteMissRatio(); br != wantByte {
		t.Fatalf("ByteMissRatio = %g, want %g", br, wantByte)
	}
	// ObserveAccess is counters-only: latency is decoupled (observed by
	// the caller via Histogram.Observe), so no clock is read and no
	// samples appear here.
	if n := snap.LatencySamples(); n != 0 {
		t.Fatalf("LatencySamples = %d, want 0 (counters-only path)", n)
	}
}

func TestSnapshotSubIsIntervalDelta(t *testing.T) {
	s := New(1)
	s.ObserveAccess(0, 10, true, 10, 0)
	s.Latency().Observe(time.Microsecond)
	prev := s.Snapshot()
	s.ObserveAccess(0, 10, false, 20, 1)
	s.Latency().Observe(time.Microsecond)
	s.ObserveAccess(0, 10, false, 30, 2)
	s.Latency().Observe(time.Microsecond)
	d := s.Snapshot().Sub(prev)
	c := d.Shards[0]
	if c.Requests != 2 || c.Hits != 0 || c.BytesRequested != 20 {
		t.Fatalf("delta counters: %+v", c)
	}
	if c.UsedBytes != 30 {
		t.Fatalf("delta UsedBytes should keep the current gauge, got %d", c.UsedBytes)
	}
	if c.Evictions != 2 {
		t.Fatalf("delta Evictions = %d, want 2", c.Evictions)
	}
	if d.LatencySamples() != 2 {
		t.Fatalf("delta latency samples = %d", d.LatencySamples())
	}
	if d.MissRatio() != 1 {
		t.Fatalf("interval MissRatio = %g, want 1", d.MissRatio())
	}
}

func TestOccupancyAndRequestSkew(t *testing.T) {
	s := New(4)
	for i := 0; i < 4; i++ {
		s.ObserveAccess(i, 10, false, 100, 0)
	}
	snap := s.Snapshot()
	if sk := snap.OccupancySkew(); sk != 1 {
		t.Fatalf("balanced skew = %g, want 1", sk)
	}
	if sk := snap.RequestSkew(); sk != 1 {
		t.Fatalf("balanced request skew = %g, want 1", sk)
	}
	s.ObserveAccess(0, 10, false, 700, 0)
	snap = s.Snapshot()
	// used: 700,100,100,100 -> mean 250, max 700 -> 2.8
	if sk := snap.OccupancySkew(); sk != 2.8 {
		t.Fatalf("skew = %g, want 2.8", sk)
	}
	if empty := (Snapshot{Shards: make([]ShardSnapshot, 3)}); empty.OccupancySkew() != 0 || empty.RequestSkew() != 0 {
		t.Fatal("empty snapshot skew should be 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	if b := bucketFor(0); b != 0 {
		t.Fatalf("bucketFor(0) = %d", b)
	}
	if b := bucketFor(time.Duration(1) << histMinShift); b != 1 {
		t.Fatalf("bucketFor(min bound) = %d, want 1", b)
	}
	if b := bucketFor(time.Hour); b != NumLatencyBuckets-1 {
		t.Fatalf("huge latency bucket = %d, want last", b)
	}
	// Every observation must land in a bucket whose bound exceeds it.
	for d := time.Duration(1); d < time.Second; d *= 3 {
		b := bucketFor(d)
		if d >= bucketBound(b) && b != NumLatencyBuckets-1 {
			t.Fatalf("latency %v landed in bucket %d with bound %v", d, b, bucketBound(b))
		}
		if b > 0 && d < bucketBound(b-1) {
			t.Fatalf("latency %v below bucket %d's lower bound", d, b)
		}
	}
}

func TestLatencyQuantiles(t *testing.T) {
	s := New(1)
	if q := s.Snapshot().LatencyQuantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v", q)
	}
	// 90 fast samples, 10 slow ones: p50 must be near the fast mode,
	// p99 near the slow mode (within one power-of-two bucket).
	for i := 0; i < 90; i++ {
		s.Latency().Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		s.Latency().Observe(1 * time.Millisecond)
	}
	snap := s.Snapshot()
	p50 := snap.LatencyQuantile(0.5)
	p99 := snap.LatencyQuantile(0.99)
	if p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1µs", p50)
	}
	if p99 < 512*time.Microsecond || p99 > 2*time.Millisecond {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if p99 <= p50 {
		t.Fatalf("p99 %v <= p50 %v", p99, p50)
	}
}

// TestConcurrentObserve hammers ObserveAccess and Snapshot from many
// goroutines; run with -race. The final snapshot must account for every
// observation exactly once.
func TestConcurrentObserve(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
		shards  = 4
	)
	s := New(shards)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Snapshot().MissRatio()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker writes the shared histogram, as scip-serve's
			// handlers do.
			for i := 0; i < perW; i++ {
				s.ObserveAccess((w+i)%shards, 1, i%2 == 0, 64, int64(i))
				s.Latency().Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snap := s.Snapshot()
	tot := snap.Totals()
	if tot.Requests != workers*perW {
		t.Fatalf("Requests = %d, want %d", tot.Requests, workers*perW)
	}
	if tot.Hits != workers*perW/2 {
		t.Fatalf("Hits = %d, want %d", tot.Hits, workers*perW/2)
	}
	if snap.LatencySamples() != workers*perW {
		t.Fatalf("latency samples = %d, want %d", snap.LatencySamples(), workers*perW)
	}
}
