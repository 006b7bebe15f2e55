package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNode is an httptest stand-in for a scip-serve node that records
// which keys it was asked for.
type fakeNode struct {
	srv  *httptest.Server
	gets atomic.Int64
	puts atomic.Int64
	dels atomic.Int64
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.gets.Add(1)
		w.Header().Set("X-Cache", "MISS")
		w.Header().Set("X-Served-By", name)
		io.WriteString(w, "body-"+r.PathValue("key"))
	})
	mux.HandleFunc("PUT /obj/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.puts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("DELETE /obj/{key}", func(w http.ResponseWriter, _ *http.Request) {
		n.dels.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// newTestRouter builds a router (health loop off) over the given fakes.
func newTestRouter(t *testing.T, cfg RouterConfig, fakes []*fakeNode) *Router {
	t.Helper()
	for _, f := range fakes {
		cfg.Nodes = append(cfg.Nodes, f.srv.URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func routerGet(t *testing.T, h http.Handler, key uint64) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/obj/"+strconv.FormatUint(key, 10), nil))
	return rec
}

// TestRouterRoutesToOwner pins that every key is proxied to its ring
// owner and the node's response (status, body, forwarded headers) passes
// through verbatim.
func TestRouterRoutesToOwner(t *testing.T) {
	fakes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")}
	rt := newTestRouter(t, RouterConfig{}, fakes)
	h := rt.Handler()

	perNode := make([]int64, len(fakes))
	for key := uint64(0); key < 300; key++ {
		owner := rt.Ring().Lookup(key)
		before := fakes[owner].gets.Load()
		rec := routerGet(t, h, key)
		if rec.Code != http.StatusOK {
			t.Fatalf("key %d: status %d", key, rec.Code)
		}
		if got := rec.Body.String(); got != fmt.Sprintf("body-%d", key) {
			t.Fatalf("key %d: body %q", key, got)
		}
		if fakes[owner].gets.Load() != before+1 {
			t.Fatalf("key %d not served by its owner (node %d)", key, owner)
		}
		if rec.Header().Get("X-Cache") != "MISS" {
			t.Errorf("key %d: X-Cache not forwarded", key)
		}
		if rec.Header().Get("X-Route-Node") != rt.Ring().Nodes()[owner] {
			t.Errorf("key %d: X-Route-Node = %q", key, rec.Header().Get("X-Route-Node"))
		}
		perNode[owner]++
	}
	for i, n := range perNode {
		if n == 0 {
			t.Errorf("node %d owned no keys out of 300", i)
		}
	}
}

// TestRouterFailover pins the ring-heal path: when a node dies, its keys
// flow to the next ring successor (after the failure threshold marks it
// down, probe-free), and the failover counter moves.
func TestRouterFailover(t *testing.T) {
	fakes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")}
	rt := newTestRouter(t, RouterConfig{NodeTimeout: 2 * time.Second}, fakes)
	rt.reg.threshold = 1
	h := rt.Handler()

	// Find a key owned by node 0 and kill that node.
	var key uint64
	for ; rt.Ring().Lookup(key) != 0; key++ {
	}
	successor := rt.Ring().Replicas(key, 2)[1]
	fakes[0].srv.Close()

	rec := routerGet(t, h, key)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover GET: status %d, body %s", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get("X-Route-Node"), rt.Ring().Nodes()[successor]; got != want {
		t.Errorf("served by %q, want successor %q", got, want)
	}
	if rt.Registry().Up(0) {
		t.Error("dead node still marked up after threshold failures")
	}
	_, failovers, _ := rt.Requests()
	if failovers == 0 {
		t.Error("failover counter did not move")
	}

	// Subsequent requests for the dead node's keys go straight to the
	// successor without re-trying the corpse.
	before := fakes[successor].gets.Load()
	if rec := routerGet(t, h, key); rec.Code != http.StatusOK {
		t.Fatalf("post-failover GET: status %d", rec.Code)
	}
	if fakes[successor].gets.Load() != before+1 {
		t.Error("down node's key not routed to its successor")
	}
}

// TestRouterHotReplication pins hot-key handling: reads of a
// router-detected hot key spread across its replica set and hot writes
// fan out to all of it.
func TestRouterHotReplication(t *testing.T) {
	fakes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")}
	rt := newTestRouter(t, RouterConfig{Replicate: true}, fakes)
	rt.hot = NewHotKeys(4, 4, sketchWidth)
	h := rt.Handler()

	const key = 42
	set := rt.Ring().Replicas(key, 2)
	for i := 0; i < 40; i++ {
		if rec := routerGet(t, h, key); rec.Code != http.StatusOK {
			t.Fatalf("GET %d: status %d", i, rec.Code)
		}
	}
	if !rt.hot.Hot(key) {
		t.Fatal("hammered key never went hot")
	}
	for _, n := range set {
		if fakes[n].gets.Load() == 0 {
			t.Errorf("replica node %d served no reads of the hot key", n)
		}
	}

	// A hot PUT reaches every replica.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/obj/42", strings.NewReader("v")))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: status %d", rec.Code)
	}
	var putNodes int
	for _, n := range set {
		if fakes[n].puts.Load() > 0 {
			putNodes++
		}
	}
	if putNodes != len(set) {
		t.Errorf("hot PUT reached %d of %d replicas", putNodes, len(set))
	}
}

// TestRouterMetricsAndStatusz smoke-checks the observability endpoints:
// every promised scip_route_* family is present and statusz mentions the
// fleet.
func TestRouterMetricsAndStatusz(t *testing.T) {
	fakes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	rt := newTestRouter(t, RouterConfig{}, fakes)
	h := rt.Handler()
	routerGet(t, h, 7)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"scip_route_requests_total", "scip_route_http_responses_total",
		"scip_route_node_requests_total", "scip_route_node_errors_total",
		"scip_route_node_up", "scip_route_failovers_total",
		"scip_route_unroutable_total", "scip_route_replicated_reads_total",
		"scip_route_fanout_writes_total", "scip_route_replica_write_errors_total",
		"scip_route_hot_keys", "scip_route_inflight_requests",
		"scip_route_uptime_seconds", "scip_route_proxy_latency_seconds",
	} {
		if !strings.Contains(body, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if !strings.Contains(rec.Body.String(), "2 nodes") {
		t.Errorf("/statusz does not describe the fleet:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz: status %d", rec.Code)
	}
}

// TestRouterAllNodesDown pins the exhaustion path: with every node dead
// the router answers 502 and counts the request unroutable.
func TestRouterAllNodesDown(t *testing.T) {
	fakes := []*fakeNode{newFakeNode(t, "a")}
	rt := newTestRouter(t, RouterConfig{NodeTimeout: time.Second}, fakes)
	rt.reg.threshold = 1
	fakes[0].srv.Close()
	h := rt.Handler()

	if rec := routerGet(t, h, 1); rec.Code != http.StatusBadGateway {
		t.Fatalf("first GET against dead fleet: status %d", rec.Code)
	}
	// Node 0 is now marked down; the all-down fallback must still try it
	// (and fail) rather than answering without an attempt.
	rec := routerGet(t, h, 2)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all-down GET: status %d", rec.Code)
	}
	_, _, unroutable := rt.Requests()
	if unroutable != 2 {
		t.Errorf("unroutable = %d, want 2", unroutable)
	}
}

func TestRegistryThresholdAndRevival(t *testing.T) {
	reg := NewRegistry([]string{"http://a", "http://b"}, nil)
	if !reg.Up(0) || reg.UpCount() != 2 {
		t.Fatal("nodes not up at start")
	}
	reg.Report(0, false)
	reg.Report(0, false)
	if !reg.Up(0) {
		t.Fatal("node down before the threshold")
	}
	reg.Report(0, false)
	if reg.Up(0) || reg.UpCount() != 1 {
		t.Fatal("node not down at the threshold")
	}
	// An interleaved success resets the streak.
	reg.Report(1, false)
	reg.Report(1, false)
	reg.Report(1, true)
	reg.Report(1, false)
	reg.Report(1, false)
	if !reg.Up(1) {
		t.Error("success did not clear the failure streak")
	}
	// One success revives a down node.
	reg.Report(0, true)
	if !reg.Up(0) {
		t.Error("down node not revived by a success")
	}
}

func TestRegistryCheckOnce(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	defer healthy.Close()
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer sick.Close()

	reg := NewRegistry([]string{healthy.URL, sick.URL}, nil)
	reg.threshold = 2
	reg.CheckOnce(context.Background())
	reg.CheckOnce(context.Background())
	if !reg.Up(0) {
		t.Error("healthy node marked down")
	}
	if reg.Up(1) {
		t.Error("500-ing node still up after threshold probes")
	}
	if reg.Probes(0) != 2 || reg.Probes(1) != 2 {
		t.Errorf("probe counts %d/%d, want 2/2", reg.Probes(0), reg.Probes(1))
	}
}
