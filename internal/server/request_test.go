package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// nullWriter is a reusable ResponseWriter that discards the body. The
// allocs test clears its header map before every request, because
// net/http hands each request a fresh one.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }

// replayBody is a rewindable request body so one PUT request can be
// replayed without allocating a fresh reader per iteration.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
func (b *replayBody) Close() error { return nil }

// TestServeAllocs pins what the deployed serving path allocates per
// request: Server.Handler() — the httpx.Shell wrapper, mux and handler —
// against a header map that starts empty on every request, which is what
// net/http provides and what the benchmark's server.allocs_per_hit
// measures. The ceilings are the values measured on go1.24: a GET hit
// allocates the five one-element header slices, the formatted size (one
// string, shared by X-Object-Size and Content-Length) and the mux's
// path-value slice; a PUT refresh the two header slices, the mux's, and
// the one copy of the body the store keeps — stored bodies are immutable,
// so a refresh installs a new slice instead of overwriting the old one a
// concurrent hit may still be writing out. The pooled httpx.Scope keeps
// status capture and the request-body read buffer out of that count, and
// a hit writes the stored slice itself, so the response body costs none.
func TestServeAllocs(t *testing.T) {
	const getCeiling, putCeiling = 7, 4
	for _, policy := range []string{"SCIP", "LRU"} {
		t.Run(policy, func(t *testing.T) {
			s := newTestServer(t, func(c *Config) { c.Policy = policy })
			h := s.Handler()
			w := &nullWriter{h: make(http.Header)}
			serve := func(r *http.Request) {
				clear(w.h)
				h.ServeHTTP(w, r)
			}

			greq := httptest.NewRequest("GET", "/obj/42?size=1000&t=7", nil)
			for i := 0; i < 3; i++ { // miss + warm the pool and buffers
				serve(greq)
			}
			if w.status != http.StatusOK || w.h.Get("X-Cache") != "HIT" {
				t.Fatalf("warmup: status %d, X-Cache %q", w.status, w.h.Get("X-Cache"))
			}
			if allocs := testing.AllocsPerRun(200, func() { serve(greq) }); allocs > getCeiling {
				t.Errorf("GET hit: %.1f allocs/op, want <= %d", allocs, getCeiling)
			}

			body := &replayBody{data: bytes.Repeat([]byte{0xAB}, 512)}
			preq := httptest.NewRequest("PUT", "/obj/43?size=512&t=7", nil)
			preq.Body = body
			for i := 0; i < 3; i++ {
				body.off = 0
				serve(preq)
			}
			if w.status != http.StatusNoContent || w.h.Get("X-Cache") != "HIT" {
				t.Fatalf("warmup: status %d, X-Cache %q", w.status, w.h.Get("X-Cache"))
			}
			if allocs := testing.AllocsPerRun(200, func() {
				body.off = 0
				serve(preq)
			}); allocs > putCeiling {
				t.Errorf("PUT refresh: %.1f allocs/op, want <= %d", allocs, putCeiling)
			}
		})
	}
}

// TestHeadersOutliveHandler: a ResponseRecorder, like a net/http
// connection, still holds the header values after the handler has
// returned and its pooled scope has gone on to serve the next request.
// Served on one goroutine so the second request reuses the first one's
// scope; several rounds, because sync.Pool drops a quarter of its Puts
// under the race detector.
func TestHeadersOutliveHandler(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	for round := 0; round < 8; round++ {
		a := doReq(t, h, "GET", "/obj/1?size=1000", nil)
		b := doReq(t, h, "GET", "/obj/2?size=777", nil)
		for _, c := range []struct {
			rec  *httptest.ResponseRecorder
			want string
		}{{a, "1000"}, {b, "777"}} {
			if size, length := c.rec.Header().Get("X-Object-Size"), c.rec.Header().Get("Content-Length"); size != c.want || length != c.want {
				t.Fatalf("round %d: X-Object-Size %q, Content-Length %q after the next request, want %s",
					round, size, length, c.want)
			}
		}
	}
}

// TestConcurrentGetsKeepTheirLengths serves small bodies — the ones
// net/http buffers whole and flushes, header block included, only after
// the handler has returned — to concurrent keep-alive clients over real
// sockets, and checks every response's length headers and bytes.
func TestConcurrentGetsKeepTheirLengths(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const clients, perClient = 16, 1500
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	origin := &SyntheticOrigin{}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The timeout turns an overlong Content-Length, which the
			// client would wait on forever, into an error.
			client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				key := uint64(c*perClient + i)
				size := 100 + int64(key*7919%901) // 100..1000 B
				want, _, _ := origin.Fetch(context.Background(), key, size)
				resp, err := client.Get(fmt.Sprintf("%s/obj/%d?size=%d", ts.URL, key, size))
				if err != nil {
					t.Errorf("key %d: %v", key, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				wantLen := strconv.FormatInt(size, 10)
				if err != nil || resp.ContentLength != size || resp.Header.Get("Content-Length") != wantLen ||
					resp.Header.Get("X-Object-Size") != wantLen || !bytes.Equal(got, want) {
					t.Errorf("key %d size %d: err %v, ContentLength %d, Content-Length %q, X-Object-Size %q, %d body bytes (equal: %v)",
						key, size, err, resp.ContentLength, resp.Header.Get("Content-Length"),
						resp.Header.Get("X-Object-Size"), len(got), bytes.Equal(got, want))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestParseQuery checks the manual scanner against the r.URL.Query()
// behaviour it replaced.
func TestParseQuery(t *testing.T) {
	cases := []struct {
		raw     string
		size, t int64
		bad     bool
	}{
		{"", -1, -1, false},
		{"size=100", 100, -1, false},
		{"t=5", -1, 5, false},
		{"size=100&t=5", 100, 5, false},
		{"t=5&size=100", 100, 5, false},
		{"t=0", -1, 0, false},
		{"other=zz&size=7", 7, -1, false},
		{"size=", -1, -1, false}, // empty value = absent, like Query().Get
		{"t=", -1, -1, false},
		{"size", -1, -1, false},         // no '=': empty value, absent
		{"size=5&size=7", 5, -1, false}, // first occurrence wins, like Query().Get
		{"size=&size=7", -1, -1, false},
		{"size&size=7", -1, -1, false},
		{"size=5&size=abc", 5, -1, false}, // a later duplicate is never parsed
		{"size=0", 0, 0, true},
		{"size=-3", 0, 0, true},
		{"size=abc", 0, 0, true},
		{"t=abc", 0, 0, true},
	}
	for _, c := range cases {
		size, tt, err := parseQuery(c.raw)
		if c.bad {
			if err == nil {
				t.Errorf("parseQuery(%q): want error, got size=%d t=%d", c.raw, size, tt)
			}
			continue
		}
		if err != nil || size != c.size || tt != c.t {
			t.Errorf("parseQuery(%q) = (%d, %d, %v), want (%d, %d, nil)",
				c.raw, size, tt, err, c.size, c.t)
		}
	}
}

// FuzzParseQuery diffs the in-place scanner against url.ParseQuery +
// Get, the behaviour it documents, on every query the reference accepts
// whose keys and values need no unescaping (the scanner deliberately
// applies none).
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"", "size=100&t=5", "t=5&size=100", "size=", "size", "size=5&size=7",
		"size=&size=7", "size=0", "t=abc", "a=1&&size=2=3", "t=1&t=-2&size=9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil || strings.ContainsAny(raw, "%+") {
			t.Skip()
		}
		wantSize, wantT, wantBad := int64(-1), int64(-1), false
		if v := vals.Get("size"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			wantSize, wantBad = n, err != nil || n <= 0
		}
		if v := vals.Get("t"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			wantT, wantBad = n, wantBad || err != nil
		}
		size, tt, err := parseQuery(raw)
		if wantBad {
			if err == nil {
				t.Fatalf("parseQuery(%q) = (%d, %d, nil), want an error", raw, size, tt)
			}
			return
		}
		if err != nil || size != wantSize || tt != wantT {
			t.Fatalf("parseQuery(%q) = (%d, %d, %v), want (%d, %d, nil)", raw, size, tt, err, wantSize, wantT)
		}
	})
}

// TestBodyStoreBodiesAreImmutable: put copies caller memory in, adopt
// keeps the caller's slice itself, and a slice get handed out is never
// written again — not by a refresh of the same key through put or adopt,
// and not by its deletion — so readers may hold it outside the lock.
func TestBodyStoreBodiesAreImmutable(t *testing.T) {
	st := newBodyStore(1 << 16)
	src := []byte("hello world")
	st.put(7, src)
	src[0] = 'X' // caller recycles its buffer
	got, ok := st.get(7)
	if !ok || string(got) != "hello world" {
		t.Fatalf("stored body = %q, want %q", got, "hello world")
	}

	st.put(7, []byte("HELLO AGAIN")) // same length: an in-place write would fit
	refreshed, _ := st.get(7)
	if string(refreshed) != "HELLO AGAIN" {
		t.Fatalf("refresh = %q", refreshed)
	}
	adopted := []byte("adopted bod")
	st.adopt(7, adopted)
	if a, _ := st.get(7); &a[0] != &adopted[0] {
		t.Fatal("adopt stored a copy, want the caller's slice")
	}
	st.delete(7)

	if string(got) != "hello world" || string(refreshed) != "HELLO AGAIN" {
		t.Fatalf("served bodies changed after refresh/delete: %q, %q", got, refreshed)
	}
}

// TestBodyStoreConcurrentUse runs get, adopt and delete from four
// goroutines over one small key set in a store too small to hold it, so
// lookups, refreshes, evictions and deletes interleave on the same
// entries; run with -race to check the store's locking. Afterwards the
// byte count, the index and the recency list must still agree.
func TestBodyStoreConcurrentUse(t *testing.T) {
	st := newBodyStore(256)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				key := uint64((g*5 + i) % 16)
				switch i % 3 {
				case 0:
					st.get(key)
				case 1:
					st.adopt(key, make([]byte, 16+key))
				default:
					st.delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	var held int64
	n := 0
	for e := st.head; e != nil; e = e.next {
		held += int64(len(e.body))
		n++
	}
	if held != st.used || n != len(st.m) || st.used > st.capBytes {
		t.Fatalf("store inconsistent: used %d, list holds %d bytes in %d entries, index %d, cap %d",
			st.used, held, n, len(st.m), st.capBytes)
	}
}

// TestBodyStoreOversizeRefreshDropsOldBody: refreshing a key with a body
// larger than the store cannot keep the new body, and must not keep the
// old one either — the next hit would serve superseded content.
func TestBodyStoreOversizeRefreshDropsOldBody(t *testing.T) {
	for _, name := range []string{"put", "adopt"} {
		st := newBodyStore(16)
		st.put(7, []byte("hello"))
		big := bytes.Repeat([]byte{'x'}, 32)
		if name == "put" {
			st.put(7, big)
		} else {
			st.adopt(7, big)
		}
		if body, ok := st.get(7); ok {
			t.Errorf("%s: oversize refresh kept the old body %q", name, body)
		}
		// The dropped body's bytes are released: a full-size body fits.
		st.put(8, bytes.Repeat([]byte{'y'}, 16))
		if _, ok := st.get(8); !ok {
			t.Errorf("%s: a 16-byte body no longer fits a 16-byte store", name)
		}
	}
}

// TestRefreshDuringGetsServesWholeBodies refreshes one key with two
// alternating bodies while concurrent clients GET it through Handler():
// every response must be one body in full. A refresh that wrote into the
// slice a hit is still writing out would tear responses (and trip -race).
func TestRefreshDuringGetsServesWholeBodies(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const clients, perClient, n = 8, 300, 8 << 10
	patterns := [2][]byte{bytes.Repeat([]byte{'a'}, n), bytes.Repeat([]byte{'b'}, n)}
	s := newTestServer(t, nil)
	h := s.Handler()
	put := func(p []byte) {
		if rec := doReq(t, h, "PUT", "/obj/5", bytes.NewReader(p)); rec.Code != http.StatusNoContent {
			t.Errorf("PUT: status %d", rec.Code)
		}
	}
	put(patterns[0])

	stop := make(chan struct{})
	putterDone := make(chan struct{})
	go func() {
		defer close(putterDone)
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
				put(patterns[i%2])
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := doReq(t, h, "GET", "/obj/5?size="+strconv.Itoa(n), nil)
				if got := rec.Body.Bytes(); !bytes.Equal(got, patterns[0]) && !bytes.Equal(got, patterns[1]) {
					t.Errorf("GET %d: status %d, X-Cache %q: body is neither refresh in full",
						i, rec.Code, rec.Header().Get("X-Cache"))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-putterDone
}
