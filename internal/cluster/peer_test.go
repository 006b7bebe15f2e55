package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"github.com/scip-cache/scip/internal/server"
)

// TestPeerFetchReadsExactLength: a peer body arrives with its length
// declared, and is read into a buffer of exactly that length — the
// asking node adopts the slice into a body store that counts len, not
// cap.
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
}
