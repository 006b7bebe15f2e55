package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/scip-cache/scip/internal/server"
)

// TestPeerFetchReadsExactLength: a peer body arrives with its length
// declared, and is read into a buffer of exactly that length — the
// asking node adopts the slice into a body store that counts len, not
// cap — and a key the peer holds no body for (its /peer answers 404) is
// ErrPeerMiss, which sends the asking node on to the origin.
func TestPeerFetchReadsExactLength(t *testing.T) {
	const size = 5000
	peer := startFleetNode(t, server.Config{Policy: "LRU", CacheBytes: 1 << 20, Shards: 2}, nil)
	resp, err := http.Get(peer.url + "/obj/7?size=5000")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(want) != size {
		t.Fatalf("warming GET: %d bytes, err %v", len(want), err)
	}

	const self = "http://self.invalid" // never asked: the peer is its only successor
	pc, err := NewPeerClient([]string{self, peer.url}, self, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, objSize, err := pc.Fetch(context.Background(), 7, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) || objSize != size {
		t.Fatalf("peer body: %d bytes (equal: %v), size %d", len(body), bytes.Equal(body, want), objSize)
	}
	if cap(body) != len(body) {
		t.Errorf("cap %d, len %d: the read left slack", cap(body), len(body))
	}
	if body, _, err := pc.Fetch(context.Background(), 8, size); body != nil || !errors.Is(err, ErrPeerMiss) {
		t.Errorf("uncached key: %d bytes, err %v, want ErrPeerMiss", len(body), err)
	}
}

// TestPeerClientKeepsConnections: a PeerClient built without a client
// reuses its connections: 400 fetches, 8 at a time, open at most 8;
// http.DefaultClient, which keeps 2 idle connections per host, redials
// for most of them.
func TestPeerClientKeepsConnections(t *testing.T) {
	body := bytes.Repeat([]byte("p"), 1000)
	const rounds, callers = 50, 8
	// The first round's requests wait for each other in the handler, so
	// each dials its own connection. Otherwise one that starts while
	// another is finishing dials, is handed the released connection, and
	// net/http abandons the dial, which the server still counts as opened.
	var opened, served atomic.Int64
	var arrived sync.WaitGroup
	arrived.Add(callers)
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= callers {
			arrived.Done()
			arrived.Wait()
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	peer.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	peer.Start()
	defer peer.Close()

	const self = "http://self.invalid" // never asked: the peer is its only successor
	pc, err := NewPeerClient([]string{self, peer.URL}, self, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds of 8 concurrent fetches: at the end of each round all 8
	// connections go idle at once, which is when a pool of 2 drops 6.
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k uint64) {
				defer wg.Done()
				if got, _, err := pc.Fetch(context.Background(), k, int64(len(body))); err != nil || len(got) != len(body) {
					t.Errorf("fetch %d: %d bytes, err %v", k, len(got), err)
				}
			}(uint64(r*callers + c))
		}
		wg.Wait()
	}
	if n := opened.Load(); n > callers {
		t.Errorf("%d fetches from %d callers opened %d connections, want <= %d", rounds*callers, callers, n, callers)
	}
}
