package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"
)

// ShardCounters is one shard's counter block. All fields are updated with
// atomic operations; the serving path calls ObserveAccess rather than
// touching fields directly.
type ShardCounters struct {
	// Requests counts accesses routed to the shard.
	Requests atomic.Int64
	// Hits counts accesses served from cache.
	Hits atomic.Int64
	// BytesRequested accumulates the sizes of all requested objects.
	BytesRequested atomic.Int64
	// BytesHit accumulates the sizes of objects served from cache.
	BytesHit atomic.Int64
	// Evictions holds the shard policy's cumulative eviction count.
	Evictions atomic.Int64
	// UsedBytes holds the last observed shard occupancy (a gauge).
	UsedBytes atomic.Int64
}

// countersPad rounds a ShardCounters block up to a whole number of 64-byte
// cache lines so neighbouring shards' hot counters never false-share (same
// scheme as shard.shardSlot).
const countersPad = 64 - unsafe.Sizeof(ShardCounters{})%64

type paddedCounters struct {
	ShardCounters
	_ [countersPad]byte
}

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

// Stats aggregates per-shard counters and the shared latency histogram
// for one cache front.
type Stats struct {
	shards []paddedCounters
	lat    Histogram
}

// New returns a Stats block for nShards shards (min 1).
func New(nShards int) *Stats {
	if nShards < 1 {
		nShards = 1
	}
	return &Stats{shards: make([]paddedCounters, nShards)}
}

// Shard returns shard i's counter block.
func (s *Stats) Shard(i int) *ShardCounters { return &s.shards[i].ShardCounters }

// Latency returns the shared latency histogram.
func (s *Stats) Latency() *Histogram { return &s.lat }

// ObserveAccess records one access routed to shard i: its hit outcome,
// the object size, and the shard's post-access occupancy and cumulative
// eviction count. It touches only atomic counters — no clock reads;
// latency is the caller's concern (scip-serve times each access and
// feeds Latency().Observe).
func (s *Stats) ObserveAccess(i int, size int64, hit bool, usedBytes, evictions int64) {
	c := s.Shard(i)
	c.Requests.Add(1)
	c.BytesRequested.Add(size)
	if hit {
		c.Hits.Add(1)
		c.BytesHit.Add(size)
	}
	c.UsedBytes.Store(usedBytes)
	c.Evictions.Store(evictions)
}

// ObserveBatch records a batch of n accesses routed to shard i with hits
// of them hitting, bytesReq/bytesHit the summed request/hit bytes, and
// the shard's post-batch occupancy and cumulative eviction count. One
// call per batch replaces n ObserveAccess calls: the totals are
// identical (sums commute) and the gauges end on the same final values
// a per-access replay would store, which is what keeps batched counters
// byte-identical to the serial path.
func (s *Stats) ObserveBatch(i int, n, hits int64, bytesReq, bytesHit, usedBytes, evictions int64) {
	c := s.Shard(i)
	c.Requests.Add(n)
	c.BytesRequested.Add(bytesReq)
	c.Hits.Add(hits)
	c.BytesHit.Add(bytesHit)
	c.UsedBytes.Store(usedBytes)
	c.Evictions.Store(evictions)
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

// Snapshot is a point-in-time copy of a Stats block. Each counter is read
// with one atomic load; the snapshot is not a single linearization point
// across counters, which is the standard (and sufficient) consistency for
// periodic reporting under load.
type Snapshot struct {
	Shards  []ShardSnapshot          `json:"shards"`
	Latency [NumLatencyBuckets]int64 `json:"-"`
	// LatencySumNanos is the sum of all observed latencies in
	// nanoseconds (the Prometheus histogram _sum series).
	LatencySumNanos int64 `json:"-"`
}

// Snapshot copies the current counter values without blocking writers.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{Shards: make([]ShardSnapshot, len(s.shards))}
	for i := range s.shards {
		c := &s.shards[i].ShardCounters
		snap.Shards[i] = ShardSnapshot{
			Requests:       c.Requests.Load(),
			Hits:           c.Hits.Load(),
			BytesRequested: c.BytesRequested.Load(),
			BytesHit:       c.BytesHit.Load(),
			Evictions:      c.Evictions.Load(),
			UsedBytes:      c.UsedBytes.Load(),
		}
	}
	for i := range s.lat.buckets {
		snap.Latency[i] = s.lat.buckets[i].Load()
	}
	snap.LatencySumNanos = s.lat.sum.Load()
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
