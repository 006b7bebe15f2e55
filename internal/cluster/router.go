package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/scip-cache/scip/internal/httpx"
	"github.com/scip-cache/scip/internal/stats"
)

// RouterConfig configures a Router. Nodes is required; everything else
// defaults (see NewRouter).
type RouterConfig struct {
	// Nodes lists the scip-serve base URLs, e.g.
	// "http://127.0.0.1:8344". The strings are the ring identities:
	// every participant (router instances, nodes running with -peers)
	// must use the identical list, in any order, to agree on ownership.
	Nodes []string
	// Replicate enables hot-key replication: reads of a hot key are
	// load-balanced across its replica set and writes/invalidations fan
	// out to all of it. Off by default — replication changes which node
	// serves a key, so exactness comparisons run with it off.
	Replicate bool

	// NodeTimeout bounds each proxied attempt (default 2s).
	NodeTimeout time.Duration
	// HealthInterval is the background /healthz probe period (default
	// 2s; negative disables the loop — proxy outcomes still feed the
	// registry).
	HealthInterval time.Duration
	// MaxBodyBytes caps accepted PUT bodies (default 1 MiB).
	MaxBodyBytes int64
	// Client is the HTTP client used for proxying (nil: a pooled
	// transport sized for the fleet). Per-attempt timeouts come from
	// NodeTimeout, not the client.
	Client *http.Client
}

// withDefaults returns cfg with unset fields defaulted.
func (cfg RouterConfig) withDefaults() RouterConfig {
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 2 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Client == nil {
		cfg.Client = httpx.NewClient(len(cfg.Nodes))
	}
	return cfg
}

// Router is the stateless consistent-hash routing tier: it proxies
// object requests to the scip-serve node(s) owning each key, fans hot
// keys out to a replica set, fails over to ring successors when a node
// is down, and exports its own scip_route_* metrics. "Stateless" means
// no object state: everything the router holds (health, frequency
// sketch, counters) is a soft hint rebuilt from traffic after a
// restart, so routers can be restarted, scaled out behind a TCP
// balancer, or replaced mid-flight without any handoff.
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	reg      *Registry
	hot      *HotKeys
	replicas int // hotReplicas clamped to the node count
	start    time.Time

	// seq spreads replicated reads across a hot key's replica set
	// (round-robin over the set, offset by one atomic counter).
	seq atomic.Uint64

	// shell counts in-flight requests and responses by status class,
	// and pools each request's scope with its routeScratch.
	shell httpx.Shell[routeScratch]

	// Routing-path counters (CLUSTER.md carries the catalogue).
	requestsByMethod   [3]atomic.Int64 // get, put, delete
	failovers          atomic.Int64
	noNodeErrors       atomic.Int64
	replicatedReads    atomic.Int64
	fanoutWrites       atomic.Int64
	replicaWriteErrors atomic.Int64
	nodeRequests       []atomic.Int64
	nodeErrors         []atomic.Int64
	lat                stats.Histogram
}

// method indices for requestsByMethod.
const (
	mGet = iota
	mPut
	mDelete
)

// The router's hot-key settings. One value of each is in use; a test
// that needs another sets the Router's fields after NewRouter.
const (
	// hotReplicas is the replica-set size for hot keys, clamped to the
	// node count. With Replicate off it still bounds the failover walk's
	// preferred prefix but changes no routing.
	hotReplicas = 2
	// hotK is the maximum hot-set size.
	hotK = 16
	// hotMin is the sketch estimate a key needs before it can enter the
	// hot set.
	hotMin = 64
	// sketchWidth is the per-row counter width of the router's frequency
	// sketch.
	sketchWidth = 4096
)

// NewRouter validates cfg, builds the ring and registry and returns a
// ready Router. ListenAndServe starts the background health loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes, VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:          cfg,
		ring:         ring,
		reg:          NewRegistry(cfg.Nodes, cfg.Client),
		hot:          NewHotKeys(hotK, hotMin, sketchWidth),
		replicas:     min(hotReplicas, len(cfg.Nodes)),
		start:        time.Now(), // uptime metadata for /metrics and /statusz, never a routing decision input
		nodeRequests: make([]atomic.Int64, len(cfg.Nodes)),
		nodeErrors:   make([]atomic.Int64, len(cfg.Nodes)),
	}
	return rt, nil
}

// Ring returns the router's ring (shared, immutable).
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry returns the router's health registry.
func (rt *Router) Registry() *Registry { return rt.reg }

// Requests returns the routed object-request total plus the failover and
// unroutable counts — the interval report line's inputs.
func (rt *Router) Requests() (total, failovers, unroutable int64) {
	for i := range rt.requestsByMethod {
		total += rt.requestsByMethod[i].Load()
	}
	return total, rt.failovers.Load(), rt.noNodeErrors.Load()
}

// Latency returns a snapshot of the end-to-end proxy latency histogram.
func (rt *Router) Latency() (buckets [stats.NumLatencyBuckets]int64, sumNanos int64) {
	return rt.lat.Snapshot()
}

// routeScratch is the router's per-request scratch, pooled with the
// request's scope: URL bytes, the response copy buffer and the
// candidate-order slices live for exactly one request and are recycled
// afterwards, so the steady-state proxy path allocates only what
// net/http itself needs.
type routeScratch struct {
	url   []byte
	buf   []byte
	cands []int
	order []int
}

// scope is a routed request's pooled scope; its Scratch is a routeScratch.
type scope = httpx.Scope[routeScratch]

// Handler returns the router's HTTP handler:
//
//	GET    /obj/{key}   proxy to the owning node (hot keys: a replica)
//	PUT    /obj/{key}   proxy to the owner (hot keys: fan to replicas)
//	DELETE /obj/{key}   proxy to the owner (replication on: all replicas)
//	GET    /metrics     Prometheus text exposition (scip_route_*)
//	GET    /healthz     liveness probe
//	GET    /statusz     human-readable status (ring, nodes, hot set)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", rt.handleGet)
	mux.HandleFunc("PUT /obj/{key}", rt.handlePut)
	mux.HandleFunc("DELETE /obj/{key}", rt.handleDelete)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /statusz", rt.handleStatusz)
	return rt.shell.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() // proxy-latency metering, never a routing decision input
		mux.ServeHTTP(w, r)
		rt.lat.Observe(time.Since(start)) // proxy-latency metering, never a routing decision input
	}))
}

// routeKey parses the request key.
func routeKey(r *http.Request) (uint64, error) {
	return strconv.ParseUint(r.PathValue("key"), 10, 64)
}

// candidates fills sc.order with the node indices to try for key, best
// first: the key's full distinct-node ring walk, with the first
// replicas entries rotated by the round-robin sequence when the key is
// hot and replication is on (spreading hot reads across the replica
// set). rotate is false for writes — they always prefer the owner.
func (rt *Router) candidates(sc *scope, key uint64, rotate bool) []int {
	x := &sc.Scratch
	x.cands = rt.ring.ReplicasInto(key, len(rt.cfg.Nodes), x.cands)
	x.order = x.order[:0]
	n := len(x.cands)
	rep := rt.replicas
	if rep > n {
		rep = n
	}
	if rotate && rep > 1 {
		off := int(rt.seq.Add(1) % uint64(rep))
		for i := 0; i < rep; i++ {
			x.order = append(x.order, x.cands[(off+i)%rep])
		}
		x.order = append(x.order, x.cands[rep:]...)
	} else {
		x.order = append(x.order, x.cands...)
	}
	return x.order
}

// proxyHeaders are the response headers forwarded from node to client,
// copied individually (never by ranging over the header map) so the
// response byte stream is deterministic.
var proxyHeaders = [...]string{
	"Content-Type", "Content-Length", "X-Cache", "X-Cache-Shard", "X-Object-Size",
}

// tryNode sends one attempt of method for key to node i: the per-attempt
// timeout, the URL assembled in the scratch (the client's query forwarded),
// body as the payload. A transport failure (connect, timeout) is counted
// against the node and returned without touching the client connection,
// so the caller can fail over; any HTTP response — including the node's
// own errors — counts as success, and is forwarded verbatim to the client
// when forward is set, drained and dropped otherwise.
func (rt *Router) tryNode(r *http.Request, sc *scope, i int, method string, key uint64, body []byte, forward bool) error {
	rt.nodeRequests[i].Add(1)
	ctx := r.Context()
	if rt.cfg.NodeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.NodeTimeout)
		defer cancel()
	}
	x := &sc.Scratch
	x.url = append(x.url[:0], rt.cfg.Nodes[i]...)
	x.url = append(x.url, "/obj/"...)
	x.url = strconv.AppendUint(x.url, key, 10)
	if rq := r.URL.RawQuery; rq != "" {
		x.url = append(x.url, '?')
		x.url = append(x.url, rq...)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, string(x.url), rd)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.nodeErrors[i].Add(1)
		rt.reg.Report(i, false)
		return err
	}
	defer resp.Body.Close()
	rt.reg.Report(i, true)
	if !forward {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	h := sc.Header()
	for _, name := range proxyHeaders {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Route-Node", rt.cfg.Nodes[i])
	sc.WriteHeader(resp.StatusCode)
	if x.buf == nil {
		x.buf = make([]byte, 32<<10)
	}
	io.CopyBuffer(sc, resp.Body, x.buf)
	return nil
}

// fireAndForget issues a replica write (PUT/DELETE fan-out) whose
// response is discarded; only transport failures count as errors. Despite
// the name it is synchronous — it returns once the node has answered —
// and must stay so: body is the scope's pooled request body, which the
// next request overwrites as soon as this handler returns.
func (rt *Router) fireAndForget(r *http.Request, sc *scope, i int, method string, key uint64, body []byte) {
	if err := rt.tryNode(r, sc, i, method, key, body, false); err != nil {
		rt.replicaWriteErrors.Add(1)
	}
}

// proxyWalk tries each candidate in order, skipping down nodes while an
// up one remains, failing over on transport errors, and answering 502
// when every attempt fails.
func (rt *Router) proxyWalk(r *http.Request, sc *scope, order []int, method string, key uint64, body []byte) {
	attempted := false
	var lastErr error
	for _, i := range order {
		if !rt.reg.Up(i) && rt.reg.UpCount() > 0 {
			continue
		}
		if attempted {
			rt.failovers.Add(1)
		}
		attempted = true
		if err := rt.tryNode(r, sc, i, method, key, body, true); err != nil {
			lastErr = err
			continue
		}
		return
	}
	if !attempted && len(order) > 0 {
		// Every node is marked down; try the owner anyway so the client
		// sees the real transport error, and so a revived node is
		// discovered even if the health loop is disabled.
		if err := rt.tryNode(r, sc, order[0], method, key, body, true); err == nil {
			return
		} else {
			lastErr = err
		}
	}
	rt.noNodeErrors.Add(1)
	if lastErr == nil {
		lastErr = fmt.Errorf("no nodes configured")
	}
	http.Error(sc, "route: no node reachable: "+lastErr.Error(), http.StatusBadGateway)
}

func (rt *Router) handleGet(w http.ResponseWriter, r *http.Request) {
	key, err := routeKey(r)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.requestsByMethod[mGet].Add(1)
	sc := httpx.ScopeOf[routeScratch](w)
	hot := false
	if rt.cfg.Replicate {
		hot = rt.hot.Observe(key)
		if hot {
			rt.replicatedReads.Add(1)
			sc.Header().Set("X-Route-Hot", "1")
		}
	}
	order := rt.candidates(sc, key, hot)
	rt.proxyWalk(r, sc, order, http.MethodGet, key, nil)
}

func (rt *Router) handlePut(w http.ResponseWriter, r *http.Request) {
	key, err := routeKey(r)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.requestsByMethod[mPut].Add(1)
	sc := httpx.ScopeOf[routeScratch](w)
	body, ok := sc.Body(r, rt.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	if len(body) == 0 {
		body = nil
	}

	hot := false
	if rt.cfg.Replicate {
		hot = rt.hot.Observe(key)
	}
	order := rt.candidates(sc, key, false)
	if hot {
		// Fan the write to the whole replica set so replicated reads
		// observe it wherever they land; the owner's response is the
		// client's response, replica outcomes are counted only.
		rep := rt.replicas
		if rep > len(order) {
			rep = len(order)
		}
		rt.fanoutWrites.Add(1)
		for _, i := range order[1:rep] {
			if rt.reg.Up(i) {
				rt.fireAndForget(r, sc, i, http.MethodPut, key, body)
			}
		}
	}
	rt.proxyWalk(r, sc, order, http.MethodPut, key, body)
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	key, err := routeKey(r)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.requestsByMethod[mDelete].Add(1)
	sc := httpx.ScopeOf[routeScratch](w)
	order := rt.candidates(sc, key, false)
	if rt.cfg.Replicate {
		// Invalidation must reach every node that may hold a copy: the
		// key may have been hot (and fanned out) at any point in the
		// past, so the whole replica set is invalidated regardless of
		// its current temperature.
		rep := rt.replicas
		if rep > len(order) {
			rep = len(order)
		}
		rt.fanoutWrites.Add(1)
		for _, i := range order[1:rep] {
			if rt.reg.Up(i) {
				rt.fireAndForget(r, sc, i, http.MethodDelete, key, nil)
			}
		}
	}
	rt.proxyWalk(r, sc, order, http.MethodDelete, key, nil)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", stats.ContentType)
	p := stats.NewPromWriter(w)
	p.Family("scip_route_requests_total", "counter", "Object requests received, by method.")
	for i, m := range [...]string{"get", "put", "delete"} {
		p.Labelled("scip_route_requests_total", "method", m, rt.requestsByMethod[i].Load())
	}
	rt.shell.WriteResponses(p, "scip_route_http_responses_total")
	perNode := func(name, typ, help string, v func(i int) int64) {
		p.Family(name, typ, help)
		for i, n := range rt.cfg.Nodes {
			p.Labelled(name, "node", n, v(i))
		}
	}
	perNode("scip_route_node_requests_total", "counter", "Proxy attempts per node.",
		func(i int) int64 { return rt.nodeRequests[i].Load() })
	perNode("scip_route_node_errors_total", "counter", "Transport failures per node.",
		func(i int) int64 { return rt.nodeErrors[i].Load() })
	perNode("scip_route_node_up", "gauge", "Node health (1 = up, 0 = down).", func(i int) int64 {
		if rt.reg.Up(i) {
			return 1
		}
		return 0
	})
	counter := func(name, help string, v int64) { p.Metric("scip_route_"+name, "counter", help, v) }
	counter("failovers_total", "Requests retried on a ring successor after a node failure.", rt.failovers.Load())
	counter("unroutable_total", "Requests that exhausted every candidate node.", rt.noNodeErrors.Load())
	counter("replicated_reads_total", "Hot-key reads load-balanced across a replica set.", rt.replicatedReads.Load())
	counter("fanout_writes_total", "Writes/invalidations fanned to a replica set.", rt.fanoutWrites.Load())
	counter("replica_write_errors_total", "Failed replica-side fan-out writes.", rt.replicaWriteErrors.Load())
	p.Metric("scip_route_hot_keys", "gauge", "Current hot-set size.", rt.hot.Len())
	p.Metric("scip_route_inflight_requests", "gauge", "Requests currently being routed.", rt.shell.Inflight())
	p.Metric("scip_route_uptime_seconds", "gauge", "Seconds since the router started.",
		strconv.FormatFloat(time.Since(rt.start).Seconds(), 'f', 3, 64)) // uptime gauge for /metrics, never a routing input
	buckets, sum := rt.lat.Snapshot()
	p.Histogram("scip_route_proxy_latency_seconds", "End-to-end routed request latency.", buckets, sum)
}

func (rt *Router) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "scip-route: %d nodes, %d vnodes/node, replicas=%d replicate=%v\n",
		len(rt.cfg.Nodes), VNodes, rt.replicas, rt.cfg.Replicate)
	fmt.Fprintf(w, "uptime:     %s\n", time.Since(rt.start).Round(time.Second)) // uptime line for /statusz, never a routing input
	var reqs int64
	for i := range rt.requestsByMethod {
		reqs += rt.requestsByMethod[i].Load()
	}
	fmt.Fprintf(w, "requests:   %d (failovers %d, unroutable %d, inflight %d)\n",
		reqs, rt.failovers.Load(), rt.noNodeErrors.Load(), rt.shell.Inflight())
	fmt.Fprintf(w, "hot keys:   %d/%d tracked (min estimate %d); %d replicated reads, %d fan-out writes\n",
		rt.hot.Len(), rt.hot.k, rt.hot.min, rt.replicatedReads.Load(), rt.fanoutWrites.Load())
	for i, n := range rt.cfg.Nodes {
		state := "up"
		if !rt.reg.Up(i) {
			state = "DOWN"
		}
		fmt.Fprintf(w, "node %d:     %s  %s  %d reqs, %d errors, %d probes\n",
			i, state, n, rt.nodeRequests[i].Load(), rt.nodeErrors[i].Load(), rt.reg.Probes(i))
	}
}

// ListenAndServe serves the router on addr until ctx is cancelled, with
// the background health loop running alongside, then drains in-flight
// requests for up to drain; ready, when non-nil, receives the bound
// address (see httpx.ListenAndServe).
func (rt *Router) ListenAndServe(ctx context.Context, addr string, drain time.Duration, ready chan<- net.Addr) error {
	return httpx.ListenAndServe(ctx, addr, rt.Handler(), drain, ready, rt.watch)
}

// watch is the health loop: Registry.Watch at the configured interval.
func (rt *Router) watch(ctx context.Context) { rt.reg.Watch(ctx, rt.cfg.HealthInterval) }
