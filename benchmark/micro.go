package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/cluster"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/mab"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/stats"
)

// Micro-timings drive one layer's exported API with the workload's own
// request stream, three times over, and keep the best: the time the
// layer needs when nothing else interferes. They are per-layer numbers,
// measured from this side of the API; nothing here is gated.

// microPrefix bounds the stream slice a micro-timing replays, so that
// three repetitions of every layer fit in the traced run.
const microPrefix = 1 << 20

// bestOf3 returns the smallest of three timings of f, per op.
func bestOf3(ops int, f func()) float64 {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(ops)
}

// sink keeps results alive so that timed calls are not optimised away.
var sink uint64

// microCache times the cache layer's building blocks: the plain LRU, the
// open-addressing index, the queue splices and the history list.
func microCache(tr []cache.Request, capBytes int64, got values) {
	got["cache.lru_ns_per_access"] = bestOf3(len(tr), func() {
		c := cache.NewLRU(capBytes)
		for _, r := range tr {
			if c.Access(r) {
				sink++
			}
		}
	})

	// Index in the stream's own mix: a Get per request, a Put on every
	// absent key and a Delete of the oldest key once the table holds as
	// many keys as the stream has distinct ones in a cache-sized window.
	const indexLive = 1 << 15
	var indexOps int
	indexNS := bestOf3(1, func() {
		var x cache.Index
		x.Init(indexLive)
		ring := make([]uint64, indexLive)
		head, n := 0, 0
		indexOps = 0
		for _, r := range tr {
			indexOps++
			if x.Get(r.Key) != cache.None {
				continue
			}
			if n == indexLive {
				x.Delete(ring[head])
				indexOps++
			} else {
				n++
			}
			x.Put(r.Key, cache.Handle(head))
			indexOps++
			ring[head] = r.Key
			head = (head + 1) % indexLive
		}
	})
	got["cache.index_ns_per_op"] = indexNS / float64(indexOps)

	// Queue splices: the promotion path of a hit.
	const queueLive = 1 << 15
	arena := cache.NewArena(queueLive)
	q := arena.NewQueue()
	handles := make([]cache.Handle, queueLive)
	for i := range handles {
		handles[i] = arena.Alloc()
		arena.At(handles[i]).Size = 1
		q.PushFront(handles[i])
	}
	got["cache.queue_ns_per_move"] = bestOf3(len(tr), func() {
		for i, r := range tr {
			h := handles[r.Key%queueLive]
			if i&7 == 0 {
				q.MoveToBack(h) // a demotion: SCIP sends a minority of promotions to the LRU end
			} else {
				q.MoveToFront(h)
			}
		}
	})

	// History in the pattern SCIP drives it: probe on every miss, add on
	// eviction, delete on a ghost hit.
	var histOps int
	histNS := bestOf3(1, func() {
		h := cache.NewHistory(capBytes / 2)
		histOps = 0
		for _, r := range tr {
			histOps++
			if h.Contains(r.Key) {
				h.Delete(r.Key)
				histOps++
				continue
			}
			h.Add(r.Key, r.Size, cache.ResInserted)
			histOps++
		}
	})
	got["cache.history_ns_per_op"] = histNS / float64(histOps)

	// Bytes of heap per resident object at a million unit-size objects.
	const residents = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := cache.NewLRU(residents)
	for k := uint64(1); k <= residents; k++ {
		c.Access(cache.Request{Time: int64(k), Key: k, Size: 1})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	got["cache.bytes_per_object"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(c.Len())
	runtime.KeepAlive(c)
}

// timedPolicy is the counting and timing decorator around core.SCIP: it
// sits where the policy is injected (cache.NewQueueCache's insertion
// policy) and forwards every method, the optional ResidencyObserver
// included, so the cache cannot tell it from the policy itself.
type timedPolicy struct {
	inner *core.SCIP
	// Aggregate spans: count and total nanoseconds per callback.
	calls, nanos            [4]int64
	lruInserts, lruPromotes int64
}

const (
	cbInsert = iota
	cbPromote
	cbEvict
	cbAccess
)

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) ChooseInsert(req cache.Request) cache.Position {
	start := time.Now()
	pos := p.inner.ChooseInsert(req)
	p.nanos[cbInsert] += int64(time.Since(start))
	p.calls[cbInsert]++
	if pos == cache.LRU {
		p.lruInserts++
	}
	return pos
}

func (p *timedPolicy) ChoosePromote(req cache.Request) cache.Position {
	start := time.Now()
	pos := p.inner.ChoosePromote(req)
	p.nanos[cbPromote] += int64(time.Since(start))
	p.calls[cbPromote]++
	if pos == cache.LRU {
		p.lruPromotes++
	}
	return pos
}

func (p *timedPolicy) OnEvict(ev cache.EvictInfo) {
	start := time.Now()
	p.inner.OnEvict(ev)
	p.nanos[cbEvict] += int64(time.Since(start))
	p.calls[cbEvict]++
}

func (p *timedPolicy) OnAccess(req cache.Request, hit bool) {
	start := time.Now()
	p.inner.OnAccess(req, hit)
	p.nanos[cbAccess] += int64(time.Since(start))
	p.calls[cbAccess]++
}

func (p *timedPolicy) OnResidentHit(req cache.Request, insertedMRU bool, res cache.Residency, hits int) {
	p.inner.OnResidentHit(req, insertedMRU, res, hits)
}

var (
	_ cache.InsertionPolicy   = (*timedPolicy)(nil)
	_ cache.ResidencyObserver = (*timedPolicy)(nil)
)

func (p *timedPolicy) meanNS(cb int) float64 {
	if p.calls[cb] == 0 {
		return 0
	}
	return float64(p.nanos[cb]) / float64(p.calls[cb])
}

// microCore times SCIP bare and decorated over the whole trace. The
// decorated replay must reproduce the bare one's hits and hit bytes
// exactly; the slow-down it causes is the tracing overhead of a replay
// workload. It returns a gate error, or "".
func microCore(tr, prefix []cache.Request, capBytes int64, got values) string {
	got["core.scip_ns_per_access"] = bestOf3(len(prefix), func() {
		c := core.NewCache(capBytes, core.WithSeed(policySeed))
		for _, r := range prefix {
			if c.Access(r) {
				sink++
			}
		}
	})
	got["core.self_ns_per_access"] = got["core.scip_ns_per_access"] - got["cache.lru_ns_per_access"]

	replayOne := func(c *cache.QueueCache) (hits, hitBytes int64, d time.Duration) {
		start := time.Now()
		for _, r := range tr {
			if c.Access(r) {
				hits++
				hitBytes += r.Size
			}
		}
		return hits, hitBytes, time.Since(start)
	}
	bareHits, bareBytes, bareD := replayOne(core.NewCache(capBytes, core.WithSeed(policySeed)))
	dec := &timedPolicy{inner: core.New(capBytes, core.WithSeed(policySeed))}
	decHits, decBytes, decD := replayOne(cache.NewQueueCache("SCIP", capBytes, dec))

	got["core.choose_insert_ns"] = dec.meanNS(cbInsert)
	got["core.choose_promote_ns"] = dec.meanNS(cbPromote)
	got["core.on_evict_ns"] = dec.meanNS(cbEvict)
	got["core.on_access_ns"] = dec.meanNS(cbAccess)
	if n := dec.calls[cbInsert]; n > 0 {
		got["core.lru_insert_share"] = float64(dec.lruInserts) / float64(n)
	}
	if n := dec.calls[cbPromote]; n > 0 {
		got["core.lru_promote_share"] = float64(dec.lruPromotes) / float64(n)
	}
	got["core.mru_weight_final"] = dec.inner.MRUWeight()
	got["core.lambda_final"] = dec.inner.Lambda()
	got["bench.trace_overhead_pct"] = 100 * (decD.Seconds() - bareD.Seconds()) / bareD.Seconds()
	if decHits != bareHits || decBytes != bareBytes {
		return fmt.Sprintf("decorated replay: %d hits / %d hit bytes, undecorated: %d / %d",
			decHits, decBytes, bareHits, bareBytes)
	}
	return ""
}

// microMAB times the bandit's two operations.
func microMAB(got values) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	us := make([]float64, 4096)
	for i := range us {
		us[i] = rng.Float64()
	}
	got["mab.select_decay_ns"] = bestOf3(n, func() {
		t := mab.NewTwoExpert(0.9)
		for i := 0; i < n; i++ {
			arm := t.Select(us[i&4095])
			t.Decay(arm, 0.05)
			sink += uint64(arm)
		}
	})
	got["mab.rate_update_ns"] = bestOf3(n, func() {
		a := mab.NewAdaptiveRate(rand.New(rand.NewSource(1)).Float64)
		for i := 0; i < n; i++ {
			if a.Update(us[i&4095]) > 0.5 {
				sink++
			}
		}
	})
}

// microShard measures what the sharded front adds to the policies
// behind it, how it scales, and what batching and the actor mode cost.
func microShard(tr []cache.Request, shardOf []int32, capBytes int64, got values) error {
	// Best of three passes, each timed from the first access: building
	// the cache is not the front's cost.
	nsPerAccess := func(o replayOpts) (float64, replayPass, error) {
		var best replayPass
		for i := 0; i < 3; i++ {
			runtime.GC()
			p, err := replay(tr, shardOf, capBytes, o)
			if err != nil {
				return 0, p, err
			}
			if i == 0 || p.elapsed < best.elapsed {
				best = p
			}
		}
		return float64(best.elapsed) / float64(len(tr)), best, nil
	}
	one, pass, err := nsPerAccess(replayOpts{workers: 1})
	if err != nil {
		return err
	}
	many, _, err := nsPerAccess(replayOpts{workers: replayWorkers()})
	if err != nil {
		return err
	}
	bare, _, err := nsPerAccess(replayOpts{workers: 1, noStats: true})
	if err != nil {
		return err
	}
	batched, _, err := nsPerAccess(replayOpts{workers: 1, batch: 64})
	if err != nil {
		return err
	}
	actor, _, err := nsPerAccess(replayOpts{workers: 1, batch: 64, mode: shard.ModeActor})
	if err != nil {
		return err
	}
	// The front's own cost: the same eight policies, same capacities and
	// seeds, driven directly — no hash, no lock, no Cache in between.
	var unfronted float64
	for rep := 0; rep < 3; rep++ {
		policies := make([]*cache.QueueCache, shardCount)
		for i := range policies {
			per := capBytes / shardCount
			if int64(i) < capBytes%shardCount {
				per++
			}
			policies[i] = core.NewCache(per, core.WithSeed(policySeed+int64(i)))
		}
		runtime.GC()
		start := time.Now()
		for i, r := range tr {
			if policies[shardOf[i]].Access(r) {
				sink++
			}
		}
		if ns := float64(time.Since(start)) / float64(len(tr)); rep == 0 || ns < unfronted {
			unfronted = ns
		}
	}
	got["shard.self_ns_per_access"] = bare - unfronted
	got["shard.scaling_eff"] = one / (many * float64(replayWorkers()))
	got["shard.batch64_ns_per_access"] = batched
	got["shard.actor_ns_per_access"] = actor
	got["shard.request_skew"] = pass.snap.RequestSkew()
	got["stats.observe_ns_per_access"] = one - bare
	return nil
}

// microStats times the stats layer's control-plane calls and the
// latency histogram.
func microStats(got values) {
	const n = 1 << 20
	var h stats.Histogram
	got["stats.latency_observe_ns"] = bestOf3(n, func() {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(100 + i&0xffff))
		}
	})
	st := stats.New(shardCount)
	for i := 0; i < shardCount; i++ {
		st.ObserveAccess(i, 1000, i&1 == 0, 1000, 0)
	}
	const calls = 2000
	got["stats.snapshot_us"] = bestOf3(calls, func() {
		for i := 0; i < calls; i++ {
			sink += uint64(len(st.Snapshot().Shards))
		}
	}) / 1e3
	snap := st.Snapshot()
	got["stats.prom_render_us"] = bestOf3(calls, func() {
		for i := 0; i < calls; i++ {
			stats.WritePrometheus(io.Discard, snap, "scip")
		}
	}) / 1e3
}

// discardWriter is the ResponseWriter of the no-socket handler timings.
type discardWriter struct {
	h http.Header
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// serverMicro is what microServer measured, kept for the derived
// server.net_cpu_us_per_req.
type serverMicro struct {
	hitUS, missUS, putUS, deleteUS float64
}

// handlerPass is one pass of requests through a handler without a
// socket: the time spent, split by what the handler said it was.
type handlerPass struct {
	hits, misses      int
	hitNS, missNS, ns int64
	mallocsPerCall    float64
}

func runPass(h http.Handler, rs []*http.Request) handlerPass {
	var p handlerPass
	dw := &discardWriter{h: make(http.Header)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range rs {
		clear(dw.h)
		start := time.Now()
		h.ServeHTTP(dw, r)
		d := int64(time.Since(start))
		p.ns += d
		if dw.h.Get("X-Cache") == "HIT" {
			p.hits++
			p.hitNS += d
		} else {
			p.misses++
			p.missNS += d
		}
	}
	runtime.ReadMemStats(&after)
	p.mallocsPerCall = float64(after.Mallocs-before.Mallocs) / float64(len(rs))
	return p
}

// microServer times Server.Handler().ServeHTTP without a socket, on the
// first distinct objects of the workload's stream: two GET passes over
// them (cold, then warm), each call classed as hit or miss by its
// X-Cache header — a miss pays the origin fetch and the body-store put —
// then a PUT pass and a DELETE pass; best of three fresh servers.
// Allocations per hit and per miss come from a set small enough that
// the cold pass is all misses and the warm pass all hits.
func microServer(w workload, reqs []request, got values) (serverMicro, error) {
	const maxObjects, allocObjects = 2048, 64
	seen := make(map[uint64]bool)
	var objs []request
	for _, r := range reqs {
		if !seen[r.key] {
			seen[r.key] = true
			objs = append(objs, request{op: opGet, key: r.key, size: r.size})
			if len(objs) == maxObjects {
				break
			}
		}
	}
	// Requests carry single-use bodies and path values, so every pass
	// gets fresh ones, built outside the timed region.
	build := func(method string, objs []request) []*http.Request {
		out := make([]*http.Request, len(objs))
		for i, o := range objs {
			var body io.Reader
			if method == "PUT" {
				body = bytes.NewReader(expectedBody(o.key, o.size))
			}
			r, err := http.NewRequest(method, "http://bench"+string(appendPath(nil, o, i)), body)
			if err != nil {
				panic(err) // unreachable: the URL is built from integers
			}
			out[i] = r
		}
		return out
	}
	newHandler := func() (*server.Server, http.Handler, error) {
		s, err := server.New(server.Config{Policy: policyName, CacheBytes: w.cacheBytes, Shards: shardCount, Seed: policySeed})
		if err != nil {
			return nil, nil, err
		}
		return s, s.Handler(), nil
	}
	var m serverMicro
	keep := func(cur *float64, v float64, first bool) {
		if first || v < *cur {
			*cur = v
		}
	}
	for rep := 0; rep < 3; rep++ {
		s, h, err := newHandler()
		if err != nil {
			return m, err
		}
		cold, warm := runPass(h, build("GET", objs)), runPass(h, build("GET", objs))
		put, del := runPass(h, build("PUT", objs)), runPass(h, build("DELETE", objs))
		s.Close()
		if hits := cold.hits + warm.hits; hits > 0 {
			keep(&m.hitUS, float64(cold.hitNS+warm.hitNS)/1e3/float64(hits), rep == 0)
		}
		if misses := cold.misses + warm.misses; misses > 0 {
			keep(&m.missUS, float64(cold.missNS+warm.missNS)/1e3/float64(misses), rep == 0)
		}
		keep(&m.putUS, float64(put.ns)/1e3/float64(len(objs)), rep == 0)
		keep(&m.deleteUS, float64(del.ns)/1e3/float64(len(objs)), rep == 0)
	}
	got["server.handle_hit_us"], got["server.handle_miss_us"] = m.hitUS, m.missUS
	got["server.handle_put_us"], got["server.handle_delete_us"] = m.putUS, m.deleteUS

	few := objs
	if len(few) > allocObjects {
		few = few[:allocObjects]
	}
	s, h, err := newHandler()
	if err != nil {
		return m, err
	}
	got["server.allocs_per_miss"] = runPass(h, build("GET", few)).mallocsPerCall
	got["server.allocs_per_hit"] = runPass(h, build("GET", few)).mallocsPerCall
	s.Close()

	origin := &server.SyntheticOrigin{MaxBody: maxBody}
	got["server.origin_synth_us"] = bestOf3(len(objs), func() {
		for _, o := range objs {
			body, _, _ := origin.Fetch(context.Background(), o.key, o.size)
			sink += uint64(len(body))
		}
	}) / 1e3
	return m, nil
}

// microCluster times the router's per-request building blocks on the
// stream's keys.
func microCluster(reqs []request, got values) error {
	nodes := make([]string, routeNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 8344+i)
	}
	ring, err := cluster.NewRing(nodes, 64)
	if err != nil {
		return err
	}
	got["cluster.ring_lookup_ns"] = bestOf3(len(reqs), func() {
		for _, r := range reqs {
			sink += uint64(ring.Lookup(r.key))
		}
	})
	dst := make([]int, 0, routeNodes)
	got["cluster.replicas_into_ns"] = bestOf3(len(reqs), func() {
		for _, r := range reqs {
			dst = ring.ReplicasInto(r.key, routeNodes, dst)
			sink += uint64(dst[0])
		}
	})
	got["cluster.hotkeys_observe_ns"] = bestOf3(len(reqs), func() {
		hot := cluster.NewHotKeys(16, 64, 4096) // scip-route's defaults
		for _, r := range reqs {
			if hot.Observe(r.key) {
				sink++
			}
		}
	})
	return nil
}
