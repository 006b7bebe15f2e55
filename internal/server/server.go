package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/httpx"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/stats"
)

// Config configures a Server. The zero value is not usable: CacheBytes
// is required; everything else has a sensible default (see New).
type Config struct {
	// Policy selects the sharded cache policy: any internal/registry
	// name except the offline Belady oracle, or a scorer: spec (default
	// SCIP).
	Policy string
	// CacheBytes is the total byte capacity, split exactly across
	// shards. Required.
	CacheBytes int64
	// Shards is the shard count, rounded up to a power of two
	// (default 8).
	Shards int
	// Seed seeds the per-shard policies (shard i gets Seed+i).
	Seed int64
	// Mode selects the shard concurrency mode (DESIGN.md §10): the
	// default shard.ModeMutex, or shard.ModeActor for a goroutine per
	// shard. Counters and decisions are identical in both.
	Mode shard.Mode
	// ActorDepth bounds each actor's mailbox in ModeActor (0 = shard
	// package default).
	ActorDepth int

	// Origin supplies object bodies on a miss (default: a zero-latency
	// SyntheticOrigin).
	Origin Origin
	// OriginTimeout bounds each origin fetch attempt (default 2s;
	// negative disables the per-attempt timeout).
	OriginTimeout time.Duration
	// OriginRetries is the number of retry attempts after a failed
	// fetch (default 2, so up to 3 attempts; negative means none).
	OriginRetries int
	// OriginBackoff is the delay before the first retry, doubling per
	// attempt (default 50ms).
	OriginBackoff time.Duration
	// ServeStale serves a previously stored body (marked X-Cache: STALE)
	// when every origin attempt fails, instead of a 502.
	ServeStale bool

	// PeerFill, when non-nil, is consulted before Origin on every miss
	// whose request declares a size: a fleet node (see internal/cluster
	// and the scip-serve -peers flag) fetches the body from the ring's
	// next replica and only falls through to the origin when no peer
	// holds it. Peer fetches go through the same bounded-backoff
	// implementation as origin fetches, under the Peer* budget below.
	// Unknown-size requests skip the peer tier: the origin is the size
	// authority, and accounting with a peer's body length instead would
	// perturb the policy decision stream.
	PeerFill Origin
	// PeerTimeout bounds each peer fetch attempt (default 500ms;
	// negative disables the per-attempt timeout).
	PeerTimeout time.Duration
	// PeerRetries is the number of peer retry attempts after a failure
	// (default 0 — peers are an optimisation, not a dependency).
	PeerRetries int
	// PeerBackoff is the delay before the first peer retry, doubling
	// per attempt (default 25ms).
	PeerBackoff time.Duration

	// MaxBodyBytes caps stored and accepted body lengths (default
	// 1 MiB). Accounting always uses the declared object size.
	MaxBodyBytes int64
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == "" {
		cfg.Policy = "SCIP"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Origin == nil {
		cfg.Origin = &SyntheticOrigin{}
	}
	if cfg.OriginTimeout == 0 {
		cfg.OriginTimeout = 2 * time.Second
	}
	if cfg.OriginRetries == 0 {
		cfg.OriginRetries = 2
	}
	if cfg.OriginRetries < 0 {
		cfg.OriginRetries = 0
	}
	if cfg.OriginBackoff <= 0 {
		cfg.OriginBackoff = 50 * time.Millisecond
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = 500 * time.Millisecond
	}
	if cfg.PeerRetries < 0 {
		cfg.PeerRetries = 0
	}
	if cfg.PeerBackoff <= 0 {
		cfg.PeerBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	return cfg
}

// Server is the scip-serve daemon: the sharded cache, its stats block,
// the per-shard body stores and flight groups, and the serving-path
// counters exported at /metrics.
type Server struct {
	cfg     Config
	cache   *shard.Cache
	st      *stats.Stats
	flights []flightGroup
	bodies  []*bodyStore
	// clock assigns logical timestamps to requests that carry no t
	// parameter; policies only rely on per-shard ordering, which a
	// global counter preserves.
	clock atomic.Int64
	start time.Time
	// shardStr[i] is strconv.Itoa(i), precomputed so the X-Cache-Shard
	// header never formats on the serving path.
	shardStr []string

	// shell counts in-flight requests and responses by status class,
	// and pools each request's scope.
	shell httpx.Shell[struct{}]

	// Serving-path counters (see OPERATIONS.md for the catalogue).
	originFetches  atomic.Int64
	originErrors   atomic.Int64
	originRetries  atomic.Int64
	coalescedWaits atomic.Int64
	staleServes    atomic.Int64
	bodyRefetches  atomic.Int64
	peerFetches    atomic.Int64
	peerErrors     atomic.Int64
	peerRetries    atomic.Int64
	peerFills      atomic.Int64
	peerServes     atomic.Int64
	peerMisses     atomic.Int64
}

// New validates cfg, builds the sharded cache with stats attached and
// returns a ready Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheBytes <= 0 {
		return nil, fmt.Errorf("server: CacheBytes must be positive, got %d", cfg.CacheBytes)
	}
	opts := []shard.Option{shard.WithMode(cfg.Mode)}
	if cfg.ActorDepth > 0 {
		opts = append(opts, shard.WithActorDepth(cfg.ActorDepth))
	}
	c, err := BuildSharded(cfg.Policy, cfg.CacheBytes, cfg.Shards, cfg.Seed, opts...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		cache:   c,
		st:      c.EnableStats(),
		flights: make([]flightGroup, c.Shards()),
		bodies:  make([]*bodyStore, c.Shards()),
		start:   time.Now(),
	}
	// Each shard's body store is bounded by its shard's policy capacity.
	for i := range s.bodies {
		s.bodies[i] = newBodyStore(shard.ShardBytes(cfg.CacheBytes, c.Shards(), i))
	}
	s.shardStr = make([]string, c.Shards())
	for i := range s.shardStr {
		s.shardStr[i] = strconv.Itoa(i)
	}
	return s, nil
}

// Close stops the cache's actor goroutines (a no-op in ModeMutex). The
// control plane — /metrics, /statusz, Remove — keeps working afterwards,
// but object requests must have drained first.
func (s *Server) Close() { s.cache.Close() }

// Cache returns the sharded cache front.
func (s *Server) Cache() *shard.Cache { return s.cache }

// Stats returns the cache's stats block.
func (s *Server) Stats() *stats.Stats { return s.st }

// Handler returns the daemon's HTTP handler:
//
//	GET    /obj/{key}   serve the object (query: size, t)
//	PUT    /obj/{key}   insert/refresh the object (body = content)
//	DELETE /obj/{key}   invalidate the object
//	GET    /peer/{key}  fleet-internal: stored body only, no policy access
//	GET    /metrics     Prometheus text exposition
//	GET    /healthz     liveness probe
//	GET    /statusz     human-readable status
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", s.handleGet)
	mux.HandleFunc("PUT /obj/{key}", s.handlePut)
	mux.HandleFunc("DELETE /obj/{key}", s.handleDelete)
	mux.HandleFunc("GET /peer/{key}", s.handlePeer)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s.shell.Wrap(mux)
}

// reqMeta extracts key and the optional size/t query parameters. The
// query is scanned in place (parseQuery) rather than through
// r.URL.Query(), whose map was the dominant per-request allocation.
func reqMeta(r *http.Request) (key uint64, size int64, t int64, err error) {
	key, err = strconv.ParseUint(r.PathValue("key"), 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad key: %w", err)
	}
	size, t, err = parseQuery(r.URL.RawQuery)
	if err != nil {
		return 0, 0, 0, err
	}
	return key, size, t, nil
}

// tick resolves a request's logical timestamp: the declared t, or the
// next server-local tick.
func (s *Server) tick(t int64) int64 {
	if t >= 0 {
		return t
	}
	return s.clock.Add(1)
}

// fetchBody performs one coalesced fill of key's body: the peer tier
// first when configured and the request declared a size, the origin
// otherwise — both through the shared bounded-backoff implementation
// (retry.go), each under its own budget. The fetch context is detached
// from the request context so a departing waiter does not abort the
// flight for everyone else; coalescing covers the whole chain, so a
// thundering herd of concurrent misses costs one peer round and at most
// one origin fetch. Every waiter receives the same body slice and adopts
// it into the store; it is read-only from here on (see bodyStore).
func (s *Server) fetchBody(r *http.Request, shardIdx int, key uint64, size int64) flightResult {
	ctx := context.WithoutCancel(r.Context())
	res, shared := s.flights[shardIdx].do(key, func() flightResult {
		if s.cfg.PeerFill != nil && size >= 0 {
			res := boundedFetch(ctx, s.cfg.PeerFill, key, size,
				retryPolicy{timeout: s.cfg.PeerTimeout, retries: s.cfg.PeerRetries, backoff: s.cfg.PeerBackoff},
				fetchCounters{attempts: &s.peerFetches, errors: &s.peerErrors, retries: &s.peerRetries})
			if res.err == nil {
				s.peerFills.Add(1)
				res.peer = true
				return res
			}
		}
		return boundedFetch(ctx, s.cfg.Origin, key, size,
			retryPolicy{timeout: s.cfg.OriginTimeout, retries: s.cfg.OriginRetries, backoff: s.cfg.OriginBackoff},
			fetchCounters{attempts: &s.originFetches, errors: &s.originErrors, retries: &s.originRetries})
	})
	if shared {
		s.coalescedWaits.Add(1)
	}
	return res
}

// serveBody writes an object response. The two numeric header values
// are ordinary strings: net/http serialises the header block when the
// response is flushed, which can be after the handler has returned, so
// nothing in it may alias pooled memory.
func (s *Server) serveBody(w http.ResponseWriter, cacheState string, shardIdx int, objSize int64, body []byte) {
	size := strconv.FormatInt(objSize, 10)
	length := size
	if int64(len(body)) != objSize {
		length = strconv.Itoa(len(body))
	}
	h := w.Header()
	setHeader(h, "Content-Type", "application/octet-stream")
	setHeader(h, "X-Cache", cacheState)
	setHeader(h, "X-Cache-Shard", s.shardStr[shardIdx])
	setHeader(h, "X-Object-Size", size)
	setHeader(h, "Content-Length", length)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, size, t, err := reqMeta(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shardIdx := s.cache.ShardIndex(key)

	if size < 0 {
		// Unknown size: the origin is the authority, so fetch first and
		// account with the size it reports (the peer tier is skipped —
		// see Config.PeerFill).
		res := s.fetchBody(r, shardIdx, key, -1)
		if res.err != nil {
			s.finishWithError(w, shardIdx, key, res.err)
			return
		}
		hit := s.access(key, res.size, s.tick(t))
		s.bodies[shardIdx].adopt(key, res.body)
		state := "MISS"
		if hit {
			state = "HIT"
		}
		s.serveBody(w, state, shardIdx, res.size, res.body)
		return
	}

	hit := s.access(key, size, s.tick(t))
	if hit {
		if body, ok := s.bodies[shardIdx].get(key); ok {
			s.serveBody(w, "HIT", shardIdx, size, body)
			return
		}
		// The policy says resident but the body was displaced from the
		// bounded body store: refetch without disturbing the accounting.
		s.bodyRefetches.Add(1)
	}
	res := s.fetchBody(r, shardIdx, key, size)
	if res.err != nil {
		s.finishWithError(w, shardIdx, key, res.err)
		return
	}
	s.bodies[shardIdx].adopt(key, res.body)
	if res.peer {
		setHeader(w.Header(), "X-Fill", "peer")
	}
	state := "MISS"
	if hit {
		state = "HIT"
	}
	s.serveBody(w, state, shardIdx, res.size, res.body)
}

// handlePeer serves GET /peer/{key}: the fleet-internal peer-fill
// endpoint. It answers from the shard's body store alone — no policy
// access, no logical-clock tick, no stats observation — so a peer
// asking this node for a body is invisible to every policy decision
// stream; only the peer_serves/peer_misses counters move. A 404 means
// "no body here": the asking node falls through to the origin.
func (s *Server) handlePeer(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.PathValue("key"), 10, 64)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	shardIdx := s.cache.ShardIndex(key)
	body, ok := s.bodies[shardIdx].get(key)
	if !ok {
		s.peerMisses.Add(1)
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	s.peerServes.Add(1)
	s.serveBody(w, "PEER", shardIdx, int64(len(body)), body)
}

// finishWithError ends a GET whose origin fetch failed: a stale body if
// degradation is enabled and one survives, a 502 otherwise.
func (s *Server) finishWithError(w http.ResponseWriter, shardIdx int, key uint64, err error) {
	if s.cfg.ServeStale {
		if body, ok := s.bodies[shardIdx].get(key); ok {
			s.staleServes.Add(1)
			s.serveBody(w, "STALE", shardIdx, int64(len(body)), body)
			return
		}
	}
	http.Error(w, "origin: "+err.Error(), http.StatusBadGateway)
}

// access performs the one policy access of an object request under the
// shard lock. The daemon is open-loop — requests arrive whenever clients
// send them — so it pays two clock reads per request to time the access.
func (s *Server) access(key uint64, size, t int64) bool {
	start := time.Now()
	hit := s.cache.Access(cache.Request{Time: t, Key: key, Size: size})
	s.st.Latency().Observe(time.Since(start))
	return hit
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, size, t, err := reqMeta(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, ok := httpx.ScopeOf[struct{}](w).Body(r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if size < 0 {
		size = int64(len(body))
	}
	if size <= 0 {
		http.Error(w, "empty object: declare ?size= or send a body", http.StatusBadRequest)
		return
	}
	shardIdx := s.cache.ShardIndex(key)
	hit := s.access(key, size, s.tick(t))
	if len(body) > 0 {
		s.bodies[shardIdx].put(key, body)
	}
	h := w.Header()
	setHeader(h, "X-Cache-Shard", s.shardStr[shardIdx])
	if hit {
		setHeader(h, "X-Cache", "HIT")
	} else {
		setHeader(h, "X-Cache", "MISS")
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key, _, _, err := reqMeta(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	shardIdx := s.cache.ShardIndex(key)
	removed, supported := s.cache.Remove(key)
	hadBody := s.bodies[shardIdx].delete(key)
	if !supported {
		http.Error(w, fmt.Sprintf("policy %s does not support invalidation", s.cache.Name()),
			http.StatusNotImplemented)
		return
	}
	if !removed && !hadBody {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", stats.ContentType)
	if err := stats.WritePrometheus(w, s.st.Snapshot(), "scip"); err != nil {
		return
	}
	s.writeServerMetrics(w)
}

// writeServerMetrics appends the serving-path series to the exposition.
func (s *Server) writeServerMetrics(w io.Writer) {
	p := stats.NewPromWriter(w)
	counter := func(name, help string, v int64) { p.Metric("scip_server_"+name, "counter", help, v) }
	counter("origin_fetches_total", "Origin fetch attempts.", s.originFetches.Load())
	counter("origin_errors_total", "Failed origin fetch attempts.", s.originErrors.Load())
	counter("origin_retries_total", "Origin fetch retries.", s.originRetries.Load())
	counter("coalesced_requests_total", "Requests that joined an in-flight origin fetch.", s.coalescedWaits.Load())
	counter("stale_serves_total", "Responses served from a stale body after origin failure.", s.staleServes.Load())
	counter("body_refetches_total", "Policy hits whose body needed an origin refetch.", s.bodyRefetches.Load())
	counter("peer_fetches_total", "Outbound peer-fill fetch attempts.", s.peerFetches.Load())
	counter("peer_errors_total", "Failed outbound peer-fill attempts (misses included).", s.peerErrors.Load())
	counter("peer_retries_total", "Outbound peer-fill retries.", s.peerRetries.Load())
	counter("peer_fills_total", "Misses whose body came from a peer instead of the origin.", s.peerFills.Load())
	counter("peer_serves_total", "Inbound /peer requests answered with a stored body.", s.peerServes.Load())
	counter("peer_misses_total", "Inbound /peer requests answered 404 (no body stored).", s.peerMisses.Load())
	s.shell.WriteResponses(p, "scip_server_http_responses_total")
	p.Metric("scip_server_inflight_requests", "gauge", "Requests currently being served.", s.shell.Inflight())
	p.Metric("scip_server_uptime_seconds", "gauge", "Seconds since the daemon started.",
		strconv.FormatFloat(time.Since(s.start).Seconds(), 'f', 3, 64))
	// GC series: with the pointer-free cache core, heap-scan bytes and
	// pause totals must stay flat as the resident set grows — these
	// gauges are how a deployment checks that invariant live.
	p.GC(stats.ReadGC(), "scip_server")
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	snap := s.st.Snapshot()
	tot := snap.Totals()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "scip-serve: %s (%s mode)\n", s.cache.Name(), s.cache.Mode())
	fmt.Fprintf(w, "uptime:     %s\n", time.Since(s.start).Round(time.Second))
	fmt.Fprintf(w, "capacity:   %.1f MiB across %d shards\n",
		float64(s.cfg.CacheBytes)/(1<<20), s.cache.Shards())
	fmt.Fprintf(w, "used:       %.1f MiB (occupancy skew %.3f)\n",
		float64(tot.UsedBytes)/(1<<20), snap.OccupancySkew())
	fmt.Fprintf(w, "requests:   %d (%d hits, miss %.4f, byteMiss %.4f)\n",
		tot.Requests, tot.Hits, snap.MissRatio(), snap.ByteMissRatio())
	fmt.Fprintf(w, "evictions:  %d\n", tot.Evictions)
	fmt.Fprintf(w, "latency:    p50=%s p99=%s\n",
		snap.LatencyQuantile(0.50).Round(time.Nanosecond),
		snap.LatencyQuantile(0.99).Round(time.Nanosecond))
	fmt.Fprintf(w, "origin:     %d fetches, %d errors, %d retries, %d coalesced, %d stale, %d refetches\n",
		s.originFetches.Load(), s.originErrors.Load(), s.originRetries.Load(),
		s.coalescedWaits.Load(), s.staleServes.Load(), s.bodyRefetches.Load())
	peerFill := "off"
	if s.cfg.PeerFill != nil {
		peerFill = "on"
	}
	fmt.Fprintf(w, "cluster:    peer-fill %s: %d peer fetches (%d fills, %d errors, %d retries); served %d peer reads (%d peer misses)\n",
		peerFill, s.peerFetches.Load(), s.peerFills.Load(), s.peerErrors.Load(),
		s.peerRetries.Load(), s.peerServes.Load(), s.peerMisses.Load())
	fmt.Fprintf(w, "inflight:   %d (goroutines %d)\n", s.shell.Inflight(), runtime.NumGoroutine())
	gc := stats.ReadGC()
	fmt.Fprintf(w, "gc:         %d cycles, pause %s, heap-scan %.1f MiB, cpu %.4f%%\n",
		gc.NumGC, gc.PauseTotal.Round(time.Microsecond),
		float64(gc.HeapScanBytes)/(1<<20), gc.CPUFraction*100)
}

// Serve serves the daemon on l until ctx is cancelled, then drains
// in-flight requests for up to drain (see httpx.Serve).
func (s *Server) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	return httpx.Serve(ctx, l, s.Handler(), drain)
}

// ListenAndServe serves the daemon on addr; ready, when non-nil,
// receives the bound address (see httpx.ListenAndServe).
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration, ready chan<- net.Addr) error {
	return httpx.ListenAndServe(ctx, addr, s.Handler(), drain, ready)
}
