package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// hangOrigin blocks every fetch until its context is cancelled — the
// "dead peer" (or dead origin) that the bounded-backoff budget exists to
// contain.
type hangOrigin struct {
	calls atomic.Int64
}

func (h *hangOrigin) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	h.calls.Add(1)
	<-ctx.Done()
	return nil, 0, ctx.Err()
}

// fixedPeer answers every fetch with a copy of a fixed body (the Origin
// contract hands the returned slice over), standing in for a fleet peer
// that holds the object.
type fixedPeer struct {
	body  []byte
	calls atomic.Int64
}

func (p *fixedPeer) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	p.calls.Add(1)
	return bytes.Clone(p.body), size, nil
}

func newPeerTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 1 << 20
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Origin == nil {
		cfg.Origin = &SyntheticOrigin{MaxBody: 64}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestDeadPeerCannotStallRequest is the regression test named in
// retry.go: a peer tier that hangs forever must not hold a request past
// the peer retryPolicy's worst-case budget — each attempt is cut off by
// the per-attempt timeout and the request falls through to the origin.
func TestDeadPeerCannotStallRequest(t *testing.T) {
	dead := &hangOrigin{}
	cfg := Config{
		PeerFill:    dead,
		PeerTimeout: 50 * time.Millisecond,
		PeerRetries: 1,
		PeerBackoff: 10 * time.Millisecond,
	}
	s := newPeerTestServer(t, cfg)
	h := s.Handler()

	pol := retryPolicy{timeout: s.cfg.PeerTimeout, retries: s.cfg.PeerRetries, backoff: s.cfg.PeerBackoff}
	limit := budget(pol) + 500*time.Millisecond // generous scheduling slack

	start := time.Now()
	rec := get(t, h, "/obj/42?size=100")
	elapsed := time.Since(start)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via origin fallthrough", rec.Code)
	}
	if rec.Header().Get("X-Fill") == "peer" {
		t.Error("response claims a peer fill from a dead peer")
	}
	if elapsed > limit {
		t.Errorf("request took %v, budget is %v (+slack)", elapsed, budget(pol))
	}
	if got := dead.calls.Load(); got != int64(cfg.PeerRetries)+1 {
		t.Errorf("dead peer asked %d times, want %d", got, cfg.PeerRetries+1)
	}
	if s.peerErrors.Load() == 0 {
		t.Error("peer errors not counted")
	}
	if s.peerFills.Load() != 0 {
		t.Error("peer fill counted despite a dead peer")
	}
}

// budget returns the worst-case wall time boundedFetch can consume
// under pol: every attempt timing out plus every backoff sleep. A
// stalled upstream must not hold a request longer.
func budget(pol retryPolicy) time.Duration {
	d := pol.timeout * time.Duration(pol.retries+1)
	for a := 0; a < pol.retries; a++ {
		d += pol.backoff << a
	}
	return d
}

// TestRetryPolicyBudget pins the budget arithmetic the stall test leans
// on: every attempt's timeout plus every doubling backoff.
func TestRetryPolicyBudget(t *testing.T) {
	pol := retryPolicy{timeout: 100 * time.Millisecond, retries: 2, backoff: 10 * time.Millisecond}
	// 3 attempts x 100ms + 10ms + 20ms backoffs.
	if got, want := budget(pol), 330*time.Millisecond; got != want {
		t.Errorf("budget = %v, want %v", got, want)
	}
	if got := budget(retryPolicy{timeout: time.Second}); got != time.Second {
		t.Errorf("no-retry budget = %v, want 1s", got)
	}
}

// TestPeerFillServesAndCounts pins the happy path: a declared-size miss
// is filled from the peer tier, marked X-Fill: peer, and counted; the
// origin is never asked.
func TestPeerFillServesAndCounts(t *testing.T) {
	peer := &fixedPeer{body: []byte("peer-body")}
	origin := &hangOrigin{} // must never be consulted
	s := newPeerTestServer(t, Config{PeerFill: peer, Origin: origin})
	h := s.Handler()

	rec := get(t, h, "/obj/7?size=9")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get("X-Fill") != "peer" {
		t.Error("peer-filled response not marked X-Fill: peer")
	}
	if rec.Body.String() != "peer-body" {
		t.Errorf("body %q", rec.Body.String())
	}
	if origin.calls.Load() != 0 {
		t.Error("origin consulted although the peer held the body")
	}
	if s.peerFills.Load() != 1 {
		t.Errorf("peer_fills = %d, want 1", s.peerFills.Load())
	}

	// A later hit serves from the body store — no further peer calls.
	before := peer.calls.Load()
	rec = get(t, h, "/obj/7?size=9")
	if rec.Header().Get("X-Cache") != "HIT" {
		t.Errorf("second GET X-Cache = %q, want HIT", rec.Header().Get("X-Cache"))
	}
	if peer.calls.Load() != before {
		t.Error("hit consulted the peer tier")
	}
}

// TestPeerFillSkipsUnknownSize pins the accounting guard: a request
// with no declared size must bypass the peer tier entirely (the origin
// is the size authority).
func TestPeerFillSkipsUnknownSize(t *testing.T) {
	peer := &fixedPeer{body: []byte("wrong")}
	s := newPeerTestServer(t, Config{PeerFill: peer})
	h := s.Handler()

	rec := get(t, h, "/obj/9")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if peer.calls.Load() != 0 {
		t.Error("unknown-size request consulted the peer tier")
	}
	if rec.Header().Get("X-Fill") == "peer" {
		t.Error("unknown-size response marked as a peer fill")
	}
}

// TestPeerEndpointInvisibleToPolicy pins the /peer/{key} contract: it
// serves only what the body store holds, 404s otherwise, and moves no
// policy counter either way.
func TestPeerEndpointInvisibleToPolicy(t *testing.T) {
	s := newPeerTestServer(t, Config{})
	h := s.Handler()

	if rec := get(t, h, "/peer/5"); rec.Code != http.StatusNotFound {
		t.Fatalf("cold /peer GET: status %d, want 404", rec.Code)
	}
	if s.peerMisses.Load() != 1 {
		t.Errorf("peer_misses = %d, want 1", s.peerMisses.Load())
	}

	// Warm the body store through the public path, then snapshot.
	if rec := get(t, h, "/obj/5?size=20"); rec.Code != http.StatusOK {
		t.Fatalf("warming GET: status %d", rec.Code)
	}
	before := s.Stats().Snapshot()

	rec := get(t, h, "/peer/5")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm /peer GET: status %d", rec.Code)
	}
	if rec.Header().Get("X-Cache") != "PEER" {
		t.Errorf("X-Cache = %q, want PEER", rec.Header().Get("X-Cache"))
	}
	if s.peerServes.Load() != 1 {
		t.Errorf("peer_serves = %d, want 1", s.peerServes.Load())
	}

	after := s.Stats().Snapshot()
	for i := range after.Shards {
		if before.Shards[i] != after.Shards[i] {
			t.Errorf("peer GET moved policy counters on shard %d:\n  before %+v\n  after  %+v",
				i, before.Shards[i], after.Shards[i])
		}
	}

	if rec := get(t, h, "/peer/nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad key: status %d, want 400", rec.Code)
	}
}

// TestPeerMetricsExposed pins that the six scip_server_peer_* families
// appear in /metrics and statusz reports the peer-fill state.
func TestPeerMetricsExposed(t *testing.T) {
	s := newPeerTestServer(t, Config{PeerFill: &fixedPeer{body: []byte("x")}})
	h := s.Handler()
	get(t, h, "/obj/3?size=1")

	body := get(t, h, "/metrics").Body.String()
	for _, family := range []string{
		"scip_server_peer_fetches_total", "scip_server_peer_errors_total",
		"scip_server_peer_retries_total", "scip_server_peer_fills_total",
		"scip_server_peer_serves_total", "scip_server_peer_misses_total",
	} {
		if !strings.Contains(body, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(body, "scip_server_peer_fills_total 1") {
		t.Error("/metrics does not report the peer fill")
	}

	statusz := get(t, h, "/statusz").Body.String()
	if !strings.Contains(statusz, "peer-fill on") {
		t.Errorf("/statusz does not report peer-fill on:\n%s", statusz)
	}
	off := newPeerTestServer(t, Config{})
	if sz := get(t, off.Handler(), "/statusz").Body.String(); !strings.Contains(sz, "peer-fill off") {
		t.Errorf("/statusz does not report peer-fill off:\n%s", sz)
	}
}
