package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestServer builds a small LRU-backed server with overrides applied.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Policy:        "LRU",
		CacheBytes:    1 << 20,
		Shards:        4,
		Seed:          1,
		OriginBackoff: time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doReq(t *testing.T, h http.Handler, method, target string, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestGetMissThenHit(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	rec := doReq(t, h, "GET", "/obj/42?size=1000", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first access X-Cache = %q, want MISS", got)
	}
	if got := rec.Header().Get("X-Object-Size"); got != "1000" {
		t.Fatalf("X-Object-Size = %q, want 1000", got)
	}
	body1 := rec.Body.String()
	if len(body1) != 1000 {
		t.Fatalf("body length = %d, want 1000", len(body1))
	}

	rec = doReq(t, h, "GET", "/obj/42?size=1000", nil)
	if got := rec.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second access X-Cache = %q, want HIT", got)
	}
	if rec.Body.String() != body1 {
		t.Fatal("hit body differs from miss body")
	}

	snap := s.Stats().Snapshot()
	tot := snap.Totals()
	if tot.Requests != 2 || tot.Hits != 1 {
		t.Fatalf("requests/hits = %d/%d, want 2/1", tot.Requests, tot.Hits)
	}
	if tot.BytesRequested != 2000 || tot.BytesHit != 1000 {
		t.Fatalf("bytes requested/hit = %d/%d, want 2000/1000", tot.BytesRequested, tot.BytesHit)
	}
}

func TestGetWithoutSizeUsesOriginSize(t *testing.T) {
	s := newTestServer(t, nil)
	rec := doReq(t, s.Handler(), "GET", "/obj/7", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	want := syntheticSize(7)
	if got := rec.Header().Get("X-Object-Size"); got != fmt.Sprint(want) {
		t.Fatalf("X-Object-Size = %q, want %d", got, want)
	}
	if got := s.Stats().Snapshot().Totals().BytesRequested; got != want {
		t.Fatalf("accounted bytes = %d, want %d", got, want)
	}
}

func TestGetBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	for _, target := range []string{"/obj/notakey", "/obj/5?size=0", "/obj/5?size=-3", "/obj/5?t=x"} {
		if rec := doReq(t, h, "GET", target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", target, rec.Code)
		}
	}
	if got := s.Stats().Snapshot().Totals().Requests; got != 0 {
		t.Fatalf("bad requests reached the cache: %d accesses", got)
	}
}

func TestPutThenGetAndDelete(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	rec := doReq(t, h, "PUT", "/obj/9", strings.NewReader("hello body"))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("PUT status = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("PUT X-Cache = %q, want MISS", got)
	}

	rec = doReq(t, h, "GET", "/obj/9?size=10", nil)
	if got := rec.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("GET after PUT X-Cache = %q, want HIT", got)
	}
	if rec.Body.String() != "hello body" {
		t.Fatalf("GET body = %q, want the PUT body", rec.Body.String())
	}

	if rec = doReq(t, h, "DELETE", "/obj/9", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", rec.Code)
	}
	if rec = doReq(t, h, "DELETE", "/obj/9", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("second DELETE status = %d, want 404", rec.Code)
	}
	rec = doReq(t, h, "GET", "/obj/9?size=10", nil)
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("GET after DELETE X-Cache = %q, want MISS", got)
	}
}

// TestDeleteAcrossPolicies runs the full invalidation round trip —
// PUT, GET hit, DELETE 204, GET miss, second DELETE 404 — over both
// kinds of cache.QueueCache, the one type that implements cache.Remover:
// one driven by a learning insertion policy (SCIP) and plain LRU.
func TestDeleteAcrossPolicies(t *testing.T) {
	for _, policy := range []string{"SCIP", "LRU"} {
		t.Run(policy, func(t *testing.T) {
			s := newTestServer(t, func(cfg *Config) { cfg.Policy = policy; cfg.CacheBytes = 1 << 22 })
			h := s.Handler()
			if rec := doReq(t, h, "PUT", "/obj/9", strings.NewReader("hello body")); rec.Code != http.StatusNoContent {
				t.Fatalf("PUT status = %d", rec.Code)
			}
			if rec := doReq(t, h, "GET", "/obj/9?size=10", nil); rec.Header().Get("X-Cache") != "HIT" {
				t.Fatalf("GET after PUT X-Cache = %q, want HIT", rec.Header().Get("X-Cache"))
			}
			if rec := doReq(t, h, "DELETE", "/obj/9", nil); rec.Code != http.StatusNoContent {
				t.Fatalf("DELETE status = %d, want 204", rec.Code)
			}
			if rec := doReq(t, h, "DELETE", "/obj/9", nil); rec.Code != http.StatusNotFound {
				t.Fatalf("second DELETE status = %d, want 404", rec.Code)
			}
			if rec := doReq(t, h, "GET", "/obj/9?size=10", nil); rec.Header().Get("X-Cache") != "MISS" {
				t.Fatalf("GET after DELETE X-Cache = %q, want MISS", rec.Header().Get("X-Cache"))
			}
		})
	}
}

func TestDeleteUnsupportedPolicy(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.Policy = "LRB"; cfg.CacheBytes = 1 << 22 })
	h := s.Handler()
	doReq(t, h, "GET", "/obj/3?size=100", nil)
	if rec := doReq(t, h, "DELETE", "/obj/3", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("DELETE on LRB = %d, want 501", rec.Code)
	}
}

func TestPutEmptyRejected(t *testing.T) {
	s := newTestServer(t, nil)
	if rec := doReq(t, s.Handler(), "PUT", "/obj/4", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty PUT = %d, want 400", rec.Code)
	}
}

// countingOrigin wraps an Origin and counts Fetch calls; with fail set it
// errors every time.
type countingOrigin struct {
	inner   Origin
	calls   atomic.Int64
	failing atomic.Bool
	block   chan struct{} // when non-nil, Fetch waits for a receive
}

func (o *countingOrigin) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	o.calls.Add(1)
	if o.block != nil {
		select {
		case o.block <- struct{}{}:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	if o.failing.Load() {
		return nil, 0, errors.New("origin down")
	}
	return o.inner.Fetch(ctx, key, size)
}

// TestCoalescing: concurrent GET misses on one key share a single origin
// fetch.
func TestCoalescing(t *testing.T) {
	origin := &countingOrigin{inner: &SyntheticOrigin{Latency: 20 * time.Millisecond}}
	s := newTestServer(t, func(cfg *Config) { cfg.Origin = origin })
	h := s.Handler()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doReq(t, h, "GET", "/obj/1?size=512", nil).Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	// Every request Accessed the cache exactly once...
	if got := s.Stats().Snapshot().Totals().Requests; got != n {
		t.Fatalf("cache accesses = %d, want %d", got, n)
	}
	// ...but misses overlapping the first flight joined it instead of
	// fetching; with 20ms origin latency at least some overlap is
	// guaranteed, and the origin must never see all n.
	if calls := origin.calls.Load(); calls >= n {
		t.Fatalf("origin saw %d fetches for %d concurrent requests; coalescing is not working", calls, n)
	}
	if s.coalescedWaits.Load() == 0 {
		t.Fatal("no request was recorded as coalesced")
	}
}

// TestOriginRetryThenSuccess: transient origin failures are retried with
// backoff and the request still succeeds.
func TestOriginRetryThenSuccess(t *testing.T) {
	origin := &countingOrigin{inner: &SyntheticOrigin{}}
	origin.failing.Store(true)
	s := newTestServer(t, func(cfg *Config) {
		cfg.Origin = origin
		cfg.OriginRetries = 3
	})
	// Heal the origin after the second attempt.
	go func() {
		for origin.calls.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		origin.failing.Store(false)
	}()
	rec := doReq(t, s.Handler(), "GET", "/obj/11?size=100", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", rec.Code, rec.Body.String())
	}
	if s.originRetries.Load() == 0 {
		t.Fatal("no retry was recorded")
	}
	if s.originErrors.Load() == 0 {
		t.Fatal("no origin error was recorded")
	}
}

// TestOriginDown502: with retries exhausted and no stale body the GET is
// a 502 — and the policy access still happened (accounting is decoupled
// from serving).
func TestOriginDown502(t *testing.T) {
	origin := &countingOrigin{inner: &SyntheticOrigin{}}
	origin.failing.Store(true)
	s := newTestServer(t, func(cfg *Config) {
		cfg.Origin = origin
		cfg.OriginRetries = 1
	})
	rec := doReq(t, s.Handler(), "GET", "/obj/12?size=100", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rec.Code)
	}
	if calls := origin.calls.Load(); calls != 2 {
		t.Fatalf("origin attempts = %d, want 2 (1 + 1 retry)", calls)
	}
	if got := s.Stats().Snapshot().Totals().Requests; got != 1 {
		t.Fatalf("cache accesses = %d, want 1", got)
	}
}

// TestServeStale: after a successful fetch stored the body, an origin
// outage serves the stale copy instead of a 502.
func TestServeStale(t *testing.T) {
	origin := &countingOrigin{inner: &SyntheticOrigin{}}
	s := newTestServer(t, func(cfg *Config) {
		cfg.Origin = origin
		cfg.ServeStale = true
		cfg.OriginRetries = 0
	})
	h := s.Handler()

	rec := doReq(t, h, "GET", "/obj/20?size=1500", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm fetch status = %d", rec.Code)
	}
	warmBody := rec.Body.String()

	origin.failing.Store(true)
	// Invalidate key 20 from the policy only (the body store keeps its
	// copy) so the next GET is a genuine policy miss with a stored body —
	// the exact state serve-stale degradation is for.
	if removed, supported := s.Cache().Remove(20); !supported || !removed {
		t.Fatal("setup: could not invalidate key 20 from the policy")
	}
	rec = doReq(t, h, "GET", "/obj/20?size=1500", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stale serve status = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-Cache"); got != "STALE" {
		t.Fatalf("X-Cache = %q, want STALE", got)
	}
	if rec.Body.String() != warmBody {
		t.Fatal("stale body differs from the stored body")
	}
	if s.staleServes.Load() != 1 {
		t.Fatalf("staleServes = %d, want 1", s.staleServes.Load())
	}
}

func TestHealthzStatusz(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	if rec := doReq(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
	doReq(t, h, "GET", "/obj/1?size=100", nil)
	rec := doReq(t, h, "GET", "/statusz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("statusz = %d", rec.Code)
	}
	for _, want := range []string{"scip-serve: LRU-x4", "requests:   1", "capacity:", "origin:"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("statusz missing %q:\n%s", want, rec.Body.String())
		}
	}
}

// TestGracefulShutdownDrains: cancelling the serve context lets an
// in-flight request (blocked on a slow origin) finish before Serve
// returns, while new connections are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Origin = &SyntheticOrigin{Latency: 300 * time.Millisecond}
	})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, ready)
	}()
	addr := (<-ready).String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/obj/77?size=100")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	// Give the request time to reach the handler, then initiate shutdown
	// while it is still blocked on the slow origin.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case code := <-reqDone:
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}
