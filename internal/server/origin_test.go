package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSyntheticBodyContract pins the synthetic origin's byte function:
// the benchmark and the tests derive expected bodies from it, so it must
// be deterministic, sized min(size, MaxBody), prefix-stable across sizes
// and distinct per key — and any change to the bytes must be deliberate.
func TestSyntheticBodyContract(t *testing.T) {
	ctx := context.Background()
	fetch := func(o *SyntheticOrigin, key uint64, size int64) []byte {
		t.Helper()
		body, _, err := o.Fetch(ctx, key, size)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	def, small := &SyntheticOrigin{}, &SyntheticOrigin{MaxBody: 100}

	// Golden: the SplitMix64 stream seeded with the key, little-endian,
	// two whole words and a 4-byte tail (seed 0's first word is the
	// published reference output 0xe220a8397b1dcdaf).
	for _, g := range []struct {
		key  uint64
		size int64
		hex  string
	}{
		{42, 20, "956eeb2f2632d7bd03f166b233e3ef28529f0f13"},
		{0, 8, "afcd1d7b39a820e2"},
	} {
		if got := hex.EncodeToString(fetch(def, g.key, g.size)); got != g.hex {
			t.Errorf("Fetch(%d, %d) = %s, want %s", g.key, g.size, got, g.hex)
		}
	}

	full := fetch(def, 9, syntheticMaxBodyDefault)
	for _, c := range []struct {
		o    *SyntheticOrigin
		size int64
		want int
	}{
		{def, 0, 0}, {def, 1, 1}, {def, 7, 7}, {def, 8, 8}, {def, 9, 9}, {def, 1000, 1000},
		{def, syntheticMaxBodyDefault + 1, syntheticMaxBodyDefault},
		{def, -1, int(syntheticSize(9))},
		{small, 99, 99}, {small, 101, 100}, {small, -1, 100},
	} {
		body := fetch(c.o, 9, c.size)
		if len(body) != c.want {
			t.Errorf("MaxBody %d, size %d: len %d, want %d", c.o.MaxBody, c.size, len(body), c.want)
		}
		if !bytes.Equal(body, full[:len(body)]) {
			t.Errorf("MaxBody %d, size %d: not a prefix of the full-length body", c.o.MaxBody, c.size)
		}
		if !bytes.Equal(body, fetch(c.o, 9, c.size)) {
			t.Errorf("MaxBody %d, size %d: two fetches differ", c.o.MaxBody, c.size)
		}
	}

	const keys = 100_000
	seen := make(map[uint64]uint64, keys)
	for k := uint64(0); k < keys; k++ {
		w := binary.LittleEndian.Uint64(fetch(def, k, 8))
		if prev, dup := seen[w]; dup {
			t.Fatalf("keys %d and %d share their first 8 bytes", prev, k)
		}
		seen[w] = k
	}
}

// TestHTTPOriginReadsExactLength: a body of declared length is read into
// a buffer of exactly that length (the store adopts it and counts len,
// not cap); one of unknown length is still read whole.
func TestHTTPOriginReadsExactLength(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 500)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/1" {
			w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		} // otherwise a 5000-byte write is sent chunked, length unknown
		w.Write(want)
	}))
	defer up.Close()
	o := &HTTPOrigin{Base: up.URL}
	for _, key := range []uint64{1, 2} {
		body, size, err := o.Fetch(context.Background(), key, -1)
		if err != nil || !bytes.Equal(body, want) || size != int64(len(want)) {
			t.Fatalf("key %d: %d bytes (equal: %v), size %d, err %v", key, len(body), bytes.Equal(body, want), size, err)
		}
		if key == 1 && cap(body) != len(body) {
			t.Errorf("declared length: cap %d, len %d", cap(body), len(body))
		}
	}
}

// TestHTTPOriginKeepsConnections: an HTTPOrigin without a Client reuses
// its connections: 400 fetches, 8 at a time, open at most 8;
// http.DefaultClient, which keeps 2 idle connections per host, redials
// for most of them.
func TestHTTPOriginKeepsConnections(t *testing.T) {
	body := bytes.Repeat([]byte("o"), 1000)
	const rounds, callers = 50, 8
	// The first round's requests wait for each other in the handler, so
	// each dials its own connection. Otherwise one that starts while
	// another is finishing dials, is handed the released connection, and
	// net/http abandons the dial, which the server still counts as opened.
	var opened, served atomic.Int64
	var arrived sync.WaitGroup
	arrived.Add(callers)
	up := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= callers {
			arrived.Done()
			arrived.Wait()
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	up.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	up.Start()
	defer up.Close()

	o := &HTTPOrigin{Base: up.URL}
	// Rounds of 8 concurrent fetches: at the end of each round all 8
	// connections go idle at once, which is when a pool of 2 drops 6.
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k uint64) {
				defer wg.Done()
				if got, _, err := o.Fetch(context.Background(), k, -1); err != nil || len(got) != len(body) {
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
