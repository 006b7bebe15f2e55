package stats

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Latency histogram geometry: bucket b counts observations with
// latency < bucketBound(b). Bounds grow as powers of two from
// 2^histMinShift ns (128 ns) so the histogram spans 128 ns .. ~17 s in
// NumLatencyBuckets fixed buckets; the last bucket is a catch-all.
const (
	histMinShift = 7
	// NumLatencyBuckets is the fixed bucket count of the histogram.
	NumLatencyBuckets = 28
)

// bucketFor maps a latency to its bucket index.
func bucketFor(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns>>histMinShift == 0 {
		return 0
	}
	b := bits.Len64(ns >> histMinShift) // strictly positive here
	if b >= NumLatencyBuckets {
		return NumLatencyBuckets - 1
	}
	return b
}

// bucketBound returns the exclusive upper latency bound of bucket b.
func bucketBound(b int) time.Duration {
	return time.Duration(uint64(1) << (histMinShift + uint(b)))
}

// LatencyBucketBound returns the upper latency bound of histogram bucket
// b (exclusive for observation, rendered as the inclusive `le` bound in
// the Prometheus exposition; the ≤-vs-< distinction only matters for
// samples landing exactly on a power-of-two nanosecond count). The last
// bucket is a catch-all whose nominal bound is ~17 s.
func LatencyBucketBound(b int) time.Duration { return bucketBound(b) }

// Histogram is a fixed-bucket, power-of-two latency histogram safe for
// concurrent Observe calls.
type Histogram struct {
	buckets [NumLatencyBuckets]atomic.Int64
	// sum accumulates observed nanoseconds so the Prometheus exposition
	// can publish the conventional _sum series alongside the buckets.
	sum atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(d.Nanoseconds())
}

// Snapshot copies the histogram's current buckets and nanosecond sum
// with one atomic load each. Standalone Histogram users (the router's
// proxy-latency histogram) pair it with PromWriter.Histogram;
// Stats.Snapshot embeds the same values in its Snapshot struct.
func (h *Histogram) Snapshot() (buckets [NumLatencyBuckets]int64, sumNanos int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.sum.Load()
}

// Stats reads per-shard counters through one function and owns the
// shared latency histogram for one cache front.
type Stats struct {
	read func(i int) ShardSnapshot
	n    int
	lat  Histogram

	// mu guards own, the counters of a block made by New.
	mu  sync.Mutex
	own []ShardSnapshot
}

// NewView returns a Stats block over nShards shards (min 1) whose
// Snapshot takes shard i's counters from read(i). read must be safe for
// concurrent use: the sharded front's reader locks the shard, copies its
// counters and reads the policy's occupancy and eviction count.
func NewView(nShards int, read func(i int) ShardSnapshot) *Stats {
	return &Stats{read: read, n: max(nShards, 1)}
}

// New returns a Stats block for nShards shards (min 1) that holds its
// own counters, written by ObserveAccess.
func New(nShards int) *Stats {
	s := &Stats{own: make([]ShardSnapshot, max(nShards, 1))}
	s.read, s.n = s.readOwn, len(s.own)
	return s
}

func (s *Stats) readOwn(i int) ShardSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.own[i]
}

// Latency returns the shared latency histogram.
func (s *Stats) Latency() *Histogram { return &s.lat }

// ObserveAccess records one access routed to shard i of a block made by
// New: its hit outcome, the object size, and the shard's post-access
// occupancy and cumulative eviction count. It reads no clock; latency is
// the caller's concern (Latency().Observe).
func (s *Stats) ObserveAccess(i int, size int64, hit bool, usedBytes, evictions int64) {
	s.mu.Lock()
	c := &s.own[i]
	c.Requests++
	c.BytesRequested += size
	if hit {
		c.Hits++
		c.BytesHit += size
	}
	c.UsedBytes = usedBytes
	c.Evictions = evictions
	s.mu.Unlock()
}

// ShardSnapshot is a plain-value copy of one shard's counters.
type ShardSnapshot struct {
	Requests       int64 `json:"requests"`
	Hits           int64 `json:"hits"`
	BytesRequested int64 `json:"bytes_requested"`
	BytesHit       int64 `json:"bytes_hit"`
	Evictions      int64 `json:"evictions"`
	UsedBytes      int64 `json:"used_bytes"`
}

// Snapshot is a point-in-time copy of a Stats block. Each shard is read
// at its own instant; the snapshot is not a single linearization point
// across shards, which is the standard (and sufficient) consistency for
// periodic reporting under load.
type Snapshot struct {
	Shards  []ShardSnapshot          `json:"shards"`
	Latency [NumLatencyBuckets]int64 `json:"-"`
	// LatencySumNanos is the sum of all observed latencies in
	// nanoseconds (the Prometheus histogram _sum series).
	LatencySumNanos int64 `json:"-"`
}

// Snapshot copies the current counter values, one shard at a time.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{Shards: make([]ShardSnapshot, s.n)}
	for i := range snap.Shards {
		snap.Shards[i] = s.read(i)
	}
	snap.Latency, snap.LatencySumNanos = s.lat.Snapshot()
	return snap
}

// Sub returns the interval delta snap−prev: counters are differenced,
// UsedBytes (a gauge) keeps its current value. prev must be an earlier
// snapshot of the same Stats block.
func (snap Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{Shards: make([]ShardSnapshot, len(snap.Shards))}
	for i := range snap.Shards {
		cur := snap.Shards[i]
		var p ShardSnapshot
		if i < len(prev.Shards) {
			p = prev.Shards[i]
		}
		d.Shards[i] = ShardSnapshot{
			Requests:       cur.Requests - p.Requests,
			Hits:           cur.Hits - p.Hits,
			BytesRequested: cur.BytesRequested - p.BytesRequested,
			BytesHit:       cur.BytesHit - p.BytesHit,
			Evictions:      cur.Evictions - p.Evictions,
			UsedBytes:      cur.UsedBytes,
		}
	}
	for i := range snap.Latency {
		d.Latency[i] = snap.Latency[i]
		if i < len(prev.Latency) {
			d.Latency[i] -= prev.Latency[i]
		}
	}
	d.LatencySumNanos = snap.LatencySumNanos - prev.LatencySumNanos
	return d
}

// Totals sums the per-shard counters (UsedBytes included: the total
// occupancy gauge).
func (snap Snapshot) Totals() ShardSnapshot {
	var t ShardSnapshot
	for _, c := range snap.Shards {
		t.Requests += c.Requests
		t.Hits += c.Hits
		t.BytesRequested += c.BytesRequested
		t.BytesHit += c.BytesHit
		t.Evictions += c.Evictions
		t.UsedBytes += c.UsedBytes
	}
	return t
}

// MissRatio returns the object miss ratio across all shards.
func (snap Snapshot) MissRatio() float64 {
	t := snap.Totals()
	if t.Requests == 0 {
		return 0
	}
	return float64(t.Requests-t.Hits) / float64(t.Requests)
}

// ByteMissRatio returns the byte miss ratio across all shards.
func (snap Snapshot) ByteMissRatio() float64 {
	t := snap.Totals()
	if t.BytesRequested == 0 {
		return 0
	}
	return float64(t.BytesRequested-t.BytesHit) / float64(t.BytesRequested)
}

// OccupancySkew measures per-shard byte-occupancy imbalance: the maximum
// shard occupancy divided by the mean (1.0 = perfectly balanced). Returns
// 0 when nothing is cached.
func (snap Snapshot) OccupancySkew() float64 {
	var sum, max int64
	for _, c := range snap.Shards {
		sum += c.UsedBytes
		if c.UsedBytes > max {
			max = c.UsedBytes
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(snap.Shards))
	return float64(max) / mean
}

// RequestSkew measures per-shard request imbalance: max shard requests
// divided by the mean. Returns 0 when the snapshot holds no requests.
func (snap Snapshot) RequestSkew() float64 {
	var sum, max int64
	for _, c := range snap.Shards {
		sum += c.Requests
		if c.Requests > max {
			max = c.Requests
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(snap.Shards))
	return float64(max) / mean
}

// LatencySamples returns the number of recorded latency observations.
func (snap Snapshot) LatencySamples() int64 {
	var n int64
	for _, b := range snap.Latency {
		n += b
	}
	return n
}

// LatencyQuantile returns the latency at quantile q ∈ [0,1], linearly
// interpolated inside the containing bucket. Returns 0 when the histogram
// is empty. The power-of-two bucket geometry bounds the relative error of
// any quantile by the bucket width (under 2x the true value).
func (snap Snapshot) LatencyQuantile(q float64) time.Duration {
	total := snap.LatencySamples()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for b, n := range snap.Latency {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo := time.Duration(0)
			if b > 0 {
				lo = bucketBound(b - 1)
			}
			hi := bucketBound(b)
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / float64(n)
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return bucketBound(NumLatencyBuckets - 1)
}
