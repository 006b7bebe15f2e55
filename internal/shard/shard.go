package shard

import (
	"fmt"
	"sync"
	"unsafe"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/stats"
)

// Builder constructs one shard's policy given the shard's byte budget and
// index (the index is typically folded into the policy's seed).
type Builder func(capBytes int64, shard int) cache.Policy

// Mode selects how accesses reach a shard's single-threaded policy. All
// modes preserve per-shard serial order, so a shard-partitioned replay
// produces byte-identical counters in every mode (pinned by
// TestModeInvariance); they differ only in synchronisation cost.
type Mode int

const (
	// ModeMutex guards each shard with its own mutex; every Access locks
	// and unlocks it. The default, and the fastest option for a single
	// accessor or per-request (unbatched) traffic.
	ModeMutex Mode = iota
	// ModeActor gives each shard a dedicated owner goroutine fed by a
	// bounded channel of request batches. Accessors never contend on the
	// shard mutex (the owner takes it uncontended, only to stay
	// interoperable with the direct control-plane methods); they pay one
	// channel send/receive per batch instead, which wins once batches
	// amortise the handoff across many requests.
	ModeActor
)

// String returns "mutex" or "actor".
func (m Mode) String() string {
	if m == ModeActor {
		return "actor"
	}
	return "mutex"
}

// ParseMode parses "mutex" or "actor" (scip-serve's -mode flag values;
// "batched" is ModeMutex driven through AccessBatch — batching is an
// access pattern, not a cache mode).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "mutex":
		return ModeMutex, nil
	case "actor":
		return ModeActor, nil
	}
	return ModeMutex, fmt.Errorf("unknown shard mode %q (want mutex or actor)", s)
}

// Option configures a Cache beyond the required constructor arguments.
type Option func(*config)

type config struct {
	mode  Mode
	depth int
}

// WithMode selects the concurrency mode (default ModeMutex).
func WithMode(m Mode) Option { return func(c *config) { c.mode = m } }

// WithActorDepth sets the per-shard channel depth in ModeActor (default
// 8 batches; min 1). Deeper channels let more batches queue behind a
// busy shard before senders block; they do not change any counter.
func WithActorDepth(n int) Option { return func(c *config) { c.depth = n } }

// Cache is a thread-safe sharded cache. All exported methods are safe for
// concurrent use.
type Cache struct {
	name   string
	shards []shardSlot
	mask   uint64
	mode   Mode

	// Actor mode: one bounded message channel per shard, each owned by a
	// dedicated goroutine; donePool recycles reply channels so the
	// steady-state access path allocates nothing.
	msgs     []chan shardMsg
	actorWG  sync.WaitGroup
	closeOne sync.Once
	donePool sync.Pool
}

// slotDataSize is the payload size of a shardSlot, computed from the real
// field layout rather than a hard-coded guess (the old padding only
// accounted for the mutex, leaving the 16-byte policy interface to spill
// onto a neighbour's cache line).
const slotDataSize = unsafe.Sizeof(struct {
	mu sync.Mutex
	p  cache.Policy
	n  counts
}{})

// slotPad rounds the slot up to a whole number of 64-byte cache lines. It
// is always in [1, 64] (a payload already at a line boundary gets a full
// spacer line) so the trailing array is never zero-sized, which would let
// Go place the next slot's fields flush against this one.
const slotPad = 64 - slotDataSize%64

// shardSlot pads each shard onto its own cache lines so the hot mutex,
// policy pointer and counters of neighbouring shards do not false-share
// under contention. The package test asserts the size is a cache-line
// multiple.
type shardSlot struct {
	mu sync.Mutex
	p  cache.Policy // touched only under mu once the cache is shared
	n  counts       // guarded by mu
	_  [slotPad]byte
}

// counts is a shard's traffic totals. They are plain fields: every
// access already holds the slot mutex, which guards them.
type counts struct {
	requests, hits, bytesReq, bytesHit int64
}

func (n *counts) add(req cache.Request, hit bool) {
	n.requests++
	n.bytesReq += req.Size
	if hit {
		n.hits++
		n.bytesHit += req.Size
	}
}

// accessLocked applies reqs to the slot's policy in slice order, storing
// each outcome in hits when non-nil, and returns the hit count. Caller
// holds s.mu.
func (s *shardSlot) accessLocked(reqs []cache.Request, hits []bool) int {
	var b counts
	for j, req := range reqs {
		hit := s.p.Access(req)
		if hits != nil {
			hits[j] = hit
		}
		b.add(req, hit)
	}
	s.n.requests += b.requests
	s.n.hits += b.hits
	s.n.bytesReq += b.bytesReq
	s.n.bytesHit += b.bytesHit
	return int(b.hits)
}

// shardMsg is one unit of work sent to a shard's owner goroutine in
// ModeActor. Exactly one of reqs (a batch) or req (a single request) is
// meaningful; hits, when non-nil, receives the per-request outcomes of a
// batch. The message is sent by value — no allocation — and done is a
// pooled reply channel carrying the batch hit count.
type shardMsg struct {
	reqs []cache.Request
	hits []bool
	req  cache.Request
	done chan int
}

// New builds a sharded cache with n shards (rounded up to a power of
// two, min 1) dividing capBytes between them.
func New(name string, capBytes int64, n int, build Builder, opts ...Option) (*Cache, error) {
	if build == nil {
		return nil, fmt.Errorf("shard: nil builder")
	}
	if capBytes <= 0 {
		return nil, fmt.Errorf("shard: capacity must be positive, got %d", capBytes)
	}
	cfg := config{mode: ModeMutex, depth: 8}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.depth < 1 {
		cfg.depth = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	c := &Cache{
		name:   name,
		shards: make([]shardSlot, size),
		mask:   uint64(size - 1),
		mode:   cfg.mode,
	}
	c.donePool.New = func() any { return make(chan int, 1) }
	for i := range c.shards { // not yet shared: no locks needed
		c.shards[i].p = build(ShardBytes(capBytes, size, i), i)
		if c.shards[i].p == nil {
			return nil, fmt.Errorf("shard: builder returned nil for shard %d", i)
		}
	}
	if c.mode == ModeActor {
		c.msgs = make([]chan shardMsg, size)
		for i := range c.msgs {
			c.msgs[i] = make(chan shardMsg, cfg.depth)
			c.actorWG.Add(1)
			go c.runActor(i)
		}
	}
	return c, nil
}

// ShardBytes returns shard i's share of a capBytes budget split n ways:
// capBytes/n each, with the remainder distributed one byte each to the
// first capBytes%n shards, so the shares sum to exactly capBytes and
// Capacity() reports the budget the caller asked for. n is the rounded
// count Cache.Shards reports.
func ShardBytes(capBytes int64, n, i int) int64 {
	per := capBytes / int64(n)
	if int64(i) < capBytes%int64(n) {
		per++
	}
	return per
}

// runActor owns shard i in ModeActor: it drains the shard's message
// channel and applies each batch under the slot mutex. The mutex is
// always uncontended on this path (accessors go through the channel, not
// the lock) — holding it only keeps the direct control-plane methods
// (Used, Evictions, Remove) safe without routing them through the
// actor, so they keep working even after Close.
func (c *Cache) runActor(i int) {
	defer c.actorWG.Done()
	s := &c.shards[i]
	for m := range c.msgs[i] {
		s.mu.Lock()
		var hits int
		if m.reqs == nil {
			hit := s.p.Access(m.req)
			s.n.add(m.req, hit)
			if hit {
				hits = 1
			}
		} else {
			hits = s.accessLocked(m.reqs, m.hits)
		}
		s.mu.Unlock()
		m.done <- hits
	}
}

// Close shuts down the shard owner goroutines of a ModeActor cache and
// waits for them to drain their queued batches. Callers must quiesce all
// Access/AccessBatch callers first; accessing a closed actor cache
// panics. The control-plane methods (Used, Capacity, Evictions,
// Remove) and the stats view's Snapshot remain usable after Close —
// they take the shard locks directly. Close is idempotent and a no-op in
// ModeMutex.
func (c *Cache) Close() {
	if c.mode != ModeActor {
		return
	}
	c.closeOne.Do(func() {
		for i := range c.msgs {
			close(c.msgs[i])
		}
		c.actorWG.Wait()
	})
}

// Mode returns the cache's concurrency mode.
func (c *Cache) Mode() Mode { return c.mode }

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// Name implements cache.Policy.
func (c *Cache) Name() string { return c.name }

// EnableStats returns a stats view over the shards' counters, which
// every access keeps from the start. Its Snapshot locks each shard in
// turn and reads the counters with the policy's occupancy and eviction
// count at that instant. The view owns a latency histogram that is the
// caller's to feed (Histogram.Observe); the access path never reads the
// clock. Each call returns a new view with an empty histogram.
func (c *Cache) EnableStats() *stats.Stats {
	return stats.NewView(len(c.shards), c.readShard)
}

// readShard copies shard i's counters and gauges under its lock.
func (c *Cache) readShard(i int) stats.ShardSnapshot {
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := stats.ShardSnapshot{
		Requests:       s.n.requests,
		Hits:           s.n.hits,
		BytesRequested: s.n.bytesReq,
		BytesHit:       s.n.bytesHit,
		UsedBytes:      s.p.Used(),
	}
	if ec, ok := s.p.(cache.EvictionCounter); ok {
		snap.Evictions = ec.Evictions()
	}
	return snap
}

// ShardIndex returns the shard the key is routed to. Replay drivers
// (runner.ReplaySharded) use it to partition a trace by shard so per-shard request order (and therefore
// every per-shard policy decision) is independent of the worker count.
func (c *Cache) ShardIndex(key uint64) int {
	h := key * 0x9E3779B97F4A7C15
	return int((h >> 40) & c.mask)
}

// Access implements cache.Policy; safe for concurrent use.
func (c *Cache) Access(req cache.Request) bool {
	idx := c.ShardIndex(req.Key)
	if c.mode == ModeActor {
		done := c.donePool.Get().(chan int)
		c.msgs[idx] <- shardMsg{req: req, done: done}
		hits := <-done
		c.donePool.Put(done)
		return hits == 1
	}
	s := &c.shards[idx]
	s.mu.Lock()
	hit := s.p.Access(req)
	s.n.add(req, hit)
	s.mu.Unlock()
	return hit
}

// AccessBatch processes a batch of requests that all route to shard idx
// (the caller's responsibility — shard-partitioned replay loops already
// group requests by ShardIndex), amortising one synchronisation round
// per batch: a single lock acquisition in ModeMutex, a single channel
// handoff in ModeActor. Requests are applied in slice order, so a
// shard's decision stream — and every counter derived from it — is
// byte-identical to len(reqs) serial Access calls. hits, when non-nil,
// must have len(reqs) elements and receives each request's outcome.
// AccessBatch returns the batch hit count.
func (c *Cache) AccessBatch(idx int, reqs []cache.Request, hits []bool) int {
	if len(reqs) == 0 {
		return 0
	}
	if hits != nil && len(hits) != len(reqs) {
		panic(fmt.Sprintf("shard: AccessBatch hits length %d != reqs length %d", len(hits), len(reqs)))
	}
	if c.mode == ModeActor {
		done := c.donePool.Get().(chan int)
		c.msgs[idx] <- shardMsg{reqs: reqs, hits: hits, done: done}
		n := <-done
		c.donePool.Put(done)
		return n
	}
	s := &c.shards[idx]
	s.mu.Lock()
	n := s.accessLocked(reqs, hits)
	s.mu.Unlock()
	return n
}

// Remove invalidates key on its shard. It reports whether the key was
// resident and whether the shard policy supports removal at all
// (cache.Remover); policies without removal support — LRB's sampled
// eviction has no per-key index delete — return supported == false and
// leave the cache untouched. Safe for concurrent use (in ModeActor it
// serialises with in-flight batches via the shard lock, which the actor
// holds while applying each batch).
func (c *Cache) Remove(key uint64) (removed, supported bool) {
	s := &c.shards[c.ShardIndex(key)]
	s.mu.Lock()
	r, supported := s.p.(cache.Remover)
	if supported {
		removed = r.Remove(key)
	}
	s.mu.Unlock()
	return removed, supported
}

// Used implements cache.Policy (a racy-but-consistent-enough aggregate;
// each shard is read under its own lock).
func (c *Cache) Used() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.p.Used()
		s.mu.Unlock()
	}
	return total
}

// Capacity implements cache.Policy.
func (c *Cache) Capacity() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.p.Capacity()
		s.mu.Unlock()
	}
	return total
}

// Evictions implements cache.EvictionCounter: the sum over shards that
// expose a counter (each read under its own lock).
func (c *Cache) Evictions() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if ec, ok := s.p.(cache.EvictionCounter); ok {
			total += ec.Evictions()
		}
		s.mu.Unlock()
	}
	return total
}

var (
	_ cache.Policy          = (*Cache)(nil)
	_ cache.EvictionCounter = (*Cache)(nil)
)
