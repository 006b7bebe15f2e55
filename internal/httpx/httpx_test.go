package httpx

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
)

// TestFetch pins the shared body fetch behind HTTPOrigin and PeerClient:
// a body of declared length is read into a buffer of exactly that length
// (the server's body store adopts it and counts len, not cap), one of
// unknown length is still read whole, and any answer but 200 is drained
// and reported as a *StatusError carrying its code.
func TestFetch(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789"), 500)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/declared":
			w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		case "/missing":
			http.Error(w, "not cached", http.StatusNotFound)
			return
		} // otherwise a 5000-byte write is sent chunked, length unknown
		w.Write(want)
	}))
	defer up.Close()
	client := NewClient(1)

	for _, path := range []string{"/declared", "/chunked"} {
		body, err := Fetch(context.Background(), client, up.URL+path)
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("%s: %d bytes (equal: %v), err %v", path, len(body), bytes.Equal(body, want), err)
		}
		if path == "/declared" && cap(body) != len(body) {
			t.Errorf("declared length: cap %d, len %d", cap(body), len(body))
		}
	}
	body, err := Fetch(context.Background(), client, up.URL+"/missing")
	var se *StatusError
	if body != nil || !errors.As(err, &se) || se.Code != http.StatusNotFound || err.Error() != "404 Not Found" {
		t.Errorf("404: body %q, err %v", body, err)
	}
}

// TestClientKeepsConnections: a NewClient client, the default of
// HTTPOrigin, PeerClient and the router, reuses its connections: 400
// fetches, 8 at a time, open at most 8; http.DefaultClient, which keeps
// 2 idle connections per host, redials for most of them.
func TestClientKeepsConnections(t *testing.T) {
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

	client := NewClient(1)
	// Rounds of 8 concurrent fetches: at the end of each round all 8
	// connections go idle at once, which is when a pool of 2 drops 6.
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if got, err := Fetch(context.Background(), client, up.URL+"/"+strconv.Itoa(k)); err != nil || len(got) != len(body) {
					t.Errorf("fetch %d: %d bytes, err %v", k, len(got), err)
				}
			}(r*callers + c)
		}
		wg.Wait()
	}
	if n := opened.Load(); n > callers {
		t.Errorf("%d fetches from %d callers opened %d connections, want <= %d", rounds*callers, callers, n, callers)
	}
}

// TestScopeBody: the pooled body read returns exactly the body at and
// under the cap, also after a longer body went through the same pooled
// buffer, and answers an over-cap body 413 without reading past max+1
// bytes.
func TestScopeBody(t *testing.T) {
	var sh Shell[struct{}]
	var got []byte
	var read int64
	h := sh.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cr := &countingReader{r: r.Body}
		r.Body = io.NopCloser(cr)
		body, ok := ScopeOf[struct{}](w).Body(r, 8)
		got, read = append(got[:0], body...), cr.n
		if ok {
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	for _, tc := range []struct {
		body     string
		status   int
		wantRead int64
	}{
		{"", http.StatusNoContent, 0},
		{"12345678", http.StatusNoContent, 8},
		{"123456789abcdef", http.StatusRequestEntityTooLarge, 9},
		{"abc", http.StatusNoContent, 3},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/", bytes.NewBufferString(tc.body)))
		if rec.Code != tc.status || read != tc.wantRead {
			t.Errorf("body %q: status %d after reading %d bytes, want %d after %d", tc.body, rec.Code, read, tc.status, tc.wantRead)
		}
		if tc.status == http.StatusNoContent && string(got) != tc.body {
			t.Errorf("body %q: read %q", tc.body, got)
		}
	}
	if sh.Inflight() != 0 {
		t.Errorf("in-flight gauge %d after every request finished", sh.Inflight())
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
