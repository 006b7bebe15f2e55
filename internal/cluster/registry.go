package cluster

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// failThreshold is the consecutive-failure count that marks a node down.
const failThreshold = 3

// Registry tracks the reachability of the fleet's nodes. A node is
// marked down after failThreshold consecutive failures — reported either by
// the router's own proxy attempts (Report) or by the background health
// loop (Watch, which probes GET /healthz) — and revives on the first
// success from either source. The router skips down nodes when walking
// a key's replica list, which is how the ring "heals": the key's
// traffic flows to the next distinct node until the probe succeeds
// again, and no state needs migrating because routers are stateless.
//
// All methods are safe for concurrent use.
type Registry struct {
	nodes     []string // base URLs
	client    *http.Client
	threshold int32 // failThreshold; tests lower it after NewRegistry

	state []nodeState
}

// nodeState is one node's health record.
type nodeState struct {
	down   atomic.Bool
	fails  atomic.Int32
	probes atomic.Int64
}

// NewRegistry builds a registry over the node base URLs; client is used
// for health probes (nil: a 1-second-timeout default).
func NewRegistry(nodes []string, client *http.Client) *Registry {
	if client == nil {
		client = &http.Client{Timeout: time.Second}
	}
	return &Registry{
		nodes:     append([]string(nil), nodes...),
		client:    client,
		threshold: failThreshold,
		state:     make([]nodeState, len(nodes)),
	}
}

// Up reports whether node i is currently considered reachable.
func (g *Registry) Up(i int) bool { return !g.state[i].down.Load() }

// UpCount returns the number of up nodes.
func (g *Registry) UpCount() int {
	n := 0
	for i := range g.state {
		if g.Up(i) {
			n++
		}
	}
	return n
}

// Report records the outcome of one interaction with node i (a proxy
// attempt or a health probe): success clears the failure streak and
// revives the node, failure extends the streak and marks the node down
// once it reaches the threshold.
func (g *Registry) Report(i int, ok bool) {
	s := &g.state[i]
	if ok {
		s.fails.Store(0)
		s.down.Store(false)
		return
	}
	if s.fails.Add(1) >= g.threshold {
		s.down.Store(true)
	}
}

// Probes returns how many health probes node i has received.
func (g *Registry) Probes(i int) int64 { return g.state[i].probes.Load() }

// CheckOnce probes every node's /healthz once, sequentially, and feeds
// the outcomes to Report. Any 2xx counts as healthy.
func (g *Registry) CheckOnce(ctx context.Context) {
	for i, base := range g.nodes {
		g.state[i].probes.Add(1)
		g.Report(i, g.probe(ctx, base))
	}
}

// probe performs one /healthz GET against base.
func (g *Registry) probe(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// Watch runs CheckOnce every interval until ctx is cancelled. Callers
// run it in its own goroutine; a zero or negative interval disables the
// loop (Report-driven marking still works).
func (g *Registry) Watch(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.CheckOnce(ctx)
		}
	}
}
