package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/httpx"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/stats"
	"github.com/scip-cache/scip/internal/trace"
)

// The cluster acceptance tests spin a real fleet on loopback: scip-serve
// instances behind a scip-route router, replaying a generated CDN-T
// trace over HTTP. Leg 1 (TestClusterEquivalenceMatchesSingleNode) pins
// that routing is a pure partition of the trace — every node's shard
// counters are byte-identical to a serial single-node replay of its ring
// partition. Leg 2 (TestClusterPeerFillConvertsOriginFills) pins that
// peer-fill is invisible to policy decisions: enabling it converts
// origin fills into peer fills and changes not one policy counter.

const (
	e2eScale  = 0.0002
	e2eSeed   = 7
	e2eShards = 4
)

// fleetNode is one in-process scip-serve instance serving on loopback.
type fleetNode struct {
	srv    *server.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

// startFleetNode serves cfg on a fresh loopback listener. When l is nil
// a listener is opened; passing one lets callers fix the URL (and hence
// the ring identity) before the server exists.
func startFleetNode(t *testing.T, cfg server.Config, l net.Listener) *fleetNode {
	t.Helper()
	if l == nil {
		var err error
		l, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &fleetNode{
		srv:    s,
		url:    "http://" + l.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { n.done <- httpx.Serve(ctx, l, s.Handler(), 10*time.Second) }()
	t.Cleanup(func() {
		n.stop(t)
		s.Close()
	})
	return n
}

func (n *fleetNode) stop(t *testing.T) {
	t.Helper()
	n.cancel()
	select {
	case err := <-n.done:
		if err != nil {
			t.Errorf("node %s: Serve returned %v", n.url, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("node %s did not shut down", n.url)
	}
	n.done <- nil // keep stop idempotent for the Cleanup call
}

// startRouter serves a router over the given node URLs on loopback and
// returns its address plus a shutdown func.
func startRouter(t *testing.T, nodes []string) (addr string, shutdown func()) {
	t.Helper()
	rt, err := NewRouter(RouterConfig{Nodes: nodes, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- rt.ListenAndServe(ctx, "127.0.0.1:0", 10*time.Second, ready) }()
	select {
	case a := <-ready:
		addr = a.String()
	case err := <-done:
		cancel()
		t.Fatalf("router listen: %v", err)
	}
	var once sync.Once
	shutdown = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("router Serve returned %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return addr, shutdown
}

func e2eGet(client *http.Client, addr string, req cache.Request) error {
	url := fmt.Sprintf("http://%s/obj/%d?size=%d&t=%d", addr, req.Key, req.Size, req.Time)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// TestClusterEquivalenceMatchesSingleNode is leg 1, the correctness
// anchor: a concurrent replay through the router (clients partitioned by
// (node, shard), per-partition order = trace order, replication and
// peer-fill off) leaves every fleet node with shard counters
// byte-identical to a serial single-node replay of the trace filtered to
// that node's ring partition.
func TestClusterEquivalenceMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e replay is seconds-long; skipped with -short")
	}
	const clients = 4
	tr, err := gen.Generate(gen.CDNT.Config(e2eScale, e2eSeed))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, e2eScale)

	fleet := make([]*fleetNode, 3)
	urls := make([]string, 3)
	for i := range fleet {
		fleet[i] = startFleetNode(t, server.Config{
			Policy:     "SCIP",
			CacheBytes: capBytes,
			Shards:     e2eShards,
			Seed:       e2eSeed,
			Origin:     &server.SyntheticOrigin{MaxBody: 64},
		}, nil)
		urls[i] = fleet[i].url
	}
	addr, shutdownRouter := startRouter(t, urls)
	ring, err := NewRing(urls, 64)
	if err != nil {
		t.Fatal(err)
	}

	// Client c owns the (node, shard) lanes with lane % clients == c and
	// replays them sequentially in trace order — the same partitioning
	// runner.ReplaySharded uses, lifted to the fleet.
	laneOf := make([]int, len(tr.Requests))
	nodeOf := make([]int, len(tr.Requests))
	for i, req := range tr.Requests {
		n := ring.Lookup(req.Key)
		nodeOf[i] = n
		laneOf[i] = n*e2eShards + fleet[n].srv.Cache().ShardIndex(req.Key)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients * 2}}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, req := range tr.Requests {
				if laneOf[i]%clients != c {
					continue
				}
				if err := e2eGet(client, addr, req); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	shutdownRouter()

	for n, node := range fleet {
		got := node.srv.Stats().Snapshot()
		ref, err := server.BuildSharded("SCIP", capBytes, e2eShards, e2eSeed)
		if err != nil {
			t.Fatal(err)
		}
		st := ref.EnableStats()
		var part int
		for i, req := range tr.Requests {
			if nodeOf[i] == n {
				ref.Access(req)
				part++
			}
		}
		want := st.Snapshot()
		ref.Close()
		for s := 0; s < e2eShards; s++ {
			if want.Shards[s] != got.Shards[s] {
				t.Errorf("node %d shard %d diverged:\n  single-node: %+v\n  fleet:       %+v",
					n, s, want.Shards[s], got.Shards[s])
			}
		}
		if !t.Failed() {
			t.Logf("node %d: %d requests, byte-identical (miss=%.4f)", n, part, got.MissRatio())
		}
	}
}

// scrapeCounter fetches one single-value counter family from a node's
// /metrics exposition.
func scrapeCounter(t *testing.T, client *http.Client, baseURL, family string) int64 {
	t.Helper()
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, family+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("%s: bad sample %q", family, line)
			}
			// Drain so the connection is reusable.
			for sc.Scan() {
			}
			return v
		}
	}
	t.Fatalf("family %s not found in %s/metrics", family, baseURL)
	return 0
}

// reservePorts picks n free loopback addresses: bind, record, release.
// Leg 2 runs its scenario twice and the ring hashes node URLs, so both
// runs must serve on the identical addresses to partition the trace the
// same way. The released ports are rebound immediately; SO_REUSEADDR
// (set by net.Listen on Unix) makes the rebind safe against lingering
// TIME_WAIT connections.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// peerFillRun is one full two-phase fleet scenario of leg 2: phase 1
// routes a trace prefix over nodes {A, B}; the router is then replaced
// by one that also knows C (a stateless reconfigure), and the suffix
// replays over all three. Keys that migrate to C warm from their old
// owner when peer-fill is on. Returns every node's policy snapshot plus
// the fleet totals of origin fetches and peer fills.
func peerFillRun(t *testing.T, tr *trace.Trace, capBytes int64, addrs []string, peerFill bool) (snaps []stats.Snapshot, originFetches, peerFills int64) {
	t.Helper()
	// Listeners first: the ring identities (URLs) must exist before the
	// servers, because each node's peer client needs the full list.
	listeners := make([]net.Listener, len(addrs))
	urls := make([]string, len(addrs))
	for i, addr := range addrs {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	fleet := make([]*fleetNode, len(addrs))
	for i := range fleet {
		cfg := server.Config{
			Policy:     "SCIP",
			CacheBytes: capBytes,
			Shards:     e2eShards,
			Seed:       e2eSeed,
			Origin:     &server.SyntheticOrigin{MaxBody: 64},
		}
		if peerFill {
			pc, err := NewPeerClient(urls, urls[i], 64, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.PeerFill = pc
		}
		fleet[i] = startFleetNode(t, cfg, listeners[i])
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	half := len(tr.Requests) / 2

	// Phase 1: two-node fleet; C runs but receives no routed traffic.
	addr, shutdown := startRouter(t, urls[:2])
	for _, req := range tr.Requests[:half] {
		if err := e2eGet(client, addr, req); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()

	// Phase 2: the ring grows to three nodes — a new stateless router.
	addr, shutdown = startRouter(t, urls)
	for _, req := range tr.Requests[half:] {
		if err := e2eGet(client, addr, req); err != nil {
			t.Fatal(err)
		}
	}
	shutdown()

	for _, n := range fleet {
		snaps = append(snaps, n.srv.Stats().Snapshot())
		originFetches += scrapeCounter(t, client, n.url, "scip_server_origin_fetches_total")
		peerFills += scrapeCounter(t, client, n.url, "scip_server_peer_fills_total")
		n.stop(t)
	}
	return snaps, originFetches, peerFills
}

// TestClusterPeerFillConvertsOriginFills is leg 2: running the identical
// two-phase grow-the-fleet scenario with peer-fill on and off must leave
// every node's policy counters byte-identical — peer fill only changes
// where bodies come from (origin fetches become peer fills), never what
// any policy decides.
func TestClusterPeerFillConvertsOriginFills(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e replay is seconds-long; skipped with -short")
	}
	tr, err := gen.Generate(gen.CDNT.Config(e2eScale, e2eSeed))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, e2eScale)

	addrs := reservePorts(t, 3)
	offSnaps, offOrigin, offPeer := peerFillRun(t, tr, capBytes, addrs, false)
	onSnaps, onOrigin, onPeer := peerFillRun(t, tr, capBytes, addrs, true)

	if offPeer != 0 {
		t.Errorf("peer fills with peer-fill off: %d", offPeer)
	}
	if onPeer == 0 {
		t.Error("no peer fills despite migrated keys and warm old owners")
	}
	if onOrigin >= offOrigin {
		t.Errorf("origin fetches did not drop: %d with peer-fill vs %d without", onOrigin, offOrigin)
	}
	for n := range offSnaps {
		for s := 0; s < e2eShards; s++ {
			if offSnaps[n].Shards[s] != onSnaps[n].Shards[s] {
				t.Errorf("node %d shard %d policy counters diverged under peer-fill:\n  off: %+v\n  on:  %+v",
					n, s, offSnaps[n].Shards[s], onSnaps[n].Shards[s])
			}
		}
	}
	if !t.Failed() {
		t.Logf("policy streams identical; %d origin fetches became %d (%d peer fills)",
			offOrigin, onOrigin, onPeer)
	}
}
