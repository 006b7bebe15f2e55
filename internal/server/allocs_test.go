//go:build !race

// The race detector makes sync.Pool drop a share of Puts at random, so
// the pooled request scope is reallocated and allocation counts measure
// the detector, not the code. `make test` runs this pin.

package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
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
