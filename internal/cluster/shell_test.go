package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/scip-cache/scip/internal/server"
)

// TestBodyCap pins the one PUT body rule both daemons follow, over real
// connections: a body of exactly MaxBodyBytes is accepted, one byte more
// is 413, and a body cut short of its declared Content-Length is a bad
// request (400), not an oversized one.
func TestBodyCap(t *testing.T) {
	const limit = 64
	node, err := server.New(server.Config{Policy: "LRU", CacheBytes: 1 << 20, Shards: 2, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	rt, err := NewRouter(RouterConfig{
		Nodes:          []string{"http://node-a"},
		HealthInterval: -1,
		MaxBodyBytes:   limit,
		Client:         &http.Client{Transport: handlerTransport{"node-a": node.Handler()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	daemons := []struct {
		name string
		h    http.Handler
	}{{"scip-serve", node.Handler()}, {"scip-route", rt.Handler()}}

	for _, d := range daemons {
		srv := httptest.NewServer(d.h)
		for _, row := range []struct {
			name       string
			declared   int
			sent       int
			wantStatus int
		}{
			{"exactly the cap", limit, limit, http.StatusNoContent},
			{"cap plus one", limit + 1, limit + 1, http.StatusRequestEntityTooLarge},
			{"cut short", 100, 50, http.StatusBadRequest},
		} {
			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "PUT /obj/9?size=%d HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s",
				row.declared, row.declared, strings.Repeat("b", row.sent))
			conn.(*net.TCPConn).CloseWrite() // the client is done: a short body ends in EOF
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Errorf("%s, %s: %v", d.name, row.name, err)
			} else {
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != row.wantStatus {
					t.Errorf("%s, %s: status %d, want %d", d.name, row.name, resp.StatusCode, row.wantStatus)
				}
			}
			conn.Close()
		}
		srv.Close()
	}
}

// TestRouterGracefulShutdownDrains is TestGracefulShutdownDrains for the
// router: cancelling the serve context lets a GET in flight to a slow
// node finish with 200, Serve returns nil, and the health loop Serve
// started is gone.
func TestRouterGracefulShutdownDrains(t *testing.T) {
	slow := startFleetNode(t, server.Config{
		Policy: "LRU", CacheBytes: 1 << 20, Shards: 2,
		Origin: &server.SyntheticOrigin{Latency: 300 * time.Millisecond},
	}, nil)
	rt, err := NewRouter(RouterConfig{Nodes: []string{slow.url}, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, ready) }()
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

	// Give the request time to reach the node, then shut the router
	// down while the node is still waiting on its slow origin.
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
	for deadline := time.Now().Add(5 * time.Second); healthLoopRunning(); {
		if time.Now().After(deadline) {
			t.Fatal("health loop still running after Serve returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// healthLoopRunning reports whether any goroutine is inside
// Registry.Watch.
func healthLoopRunning() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Registry).Watch")
}
