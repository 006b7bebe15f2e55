// Package httpx is the HTTP shell scip-serve (internal/server) and
// scip-route (internal/cluster) share: serving with a graceful drain,
// the instrumented request scope (in-flight gauge, responses by status
// class, a pooled request-body read under a byte cap), and the
// exact-length body fetch over a pooled client. Each daemon keeps its
// own handlers, counters and latency timing.
package httpx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scip-cache/scip/internal/stats"
)

// ListenAndServe listens on addr, sends the bound address to ready when
// it is non-nil (callers binding port 0 use it) and calls Serve.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, drain time.Duration, ready chan<- net.Addr, loops ...func(context.Context)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return Serve(ctx, l, h, drain, loops...)
}

// Serve serves h on l until ctx is cancelled, then shuts down
// gracefully: the listener closes at once and in-flight requests drain
// for up to drain (0 waits indefinitely). Each loop runs alongside under
// a context cancelled when serving stops, and Serve returns only after
// every loop has. It returns nil after a clean drain.
func Serve(ctx context.Context, l net.Listener, h http.Handler, drain time.Duration, loops ...func(context.Context)) error {
	lctx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop()
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(lctx)
		}()
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drain)
		defer cancel()
	}
	err := hs.Shutdown(sctx)
	if serveErr := <-errc; !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// Shell instruments a daemon's handler (Wrap) with the in-flight gauge,
// the responses-by-class counters and a pooled Scope per request; T is
// the daemon's per-request scratch. The zero value is ready to use.
type Shell[T any] struct {
	inflight  atomic.Int64
	responses [6]atomic.Int64 // index = status/100
	pool      sync.Pool
}

// Scope is one request's pooled state and the ResponseWriter its
// handlers see. Nothing handed to net/http may alias it after the
// handler returns, so header values are ordinary strings.
type Scope[T any] struct {
	w       http.ResponseWriter
	status  int
	body    bytes.Buffer
	limit   io.LimitedReader
	Scratch T
}

func (sc *Scope[T]) Header() http.Header         { return sc.w.Header() }
func (sc *Scope[T]) Write(p []byte) (int, error) { return sc.w.Write(p) }

func (sc *Scope[T]) WriteHeader(code int) {
	sc.status = code
	sc.w.WriteHeader(code)
}

// Wrap returns next instrumented; its handlers get their scope with
// ScopeOf.
func (sh *Shell[T]) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh.inflight.Add(1)
		sc, _ := sh.pool.Get().(*Scope[T])
		if sc == nil {
			sc = new(Scope[T])
			sc.body.Grow(4096)
		}
		sc.w, sc.status = w, http.StatusOK
		next.ServeHTTP(sc, r)
		if class := sc.status / 100; class >= 1 && class <= 5 {
			sh.responses[class].Add(1)
		}
		sc.w = nil
		sh.pool.Put(sc)
		sh.inflight.Add(-1)
	})
}

// ScopeOf returns the scope Wrap passed to a handler as its
// ResponseWriter.
func ScopeOf[T any](w http.ResponseWriter) *Scope[T] { return w.(*Scope[T]) }

// Inflight returns the number of requests being served.
func (sh *Shell[T]) Inflight() int64 { return sh.inflight.Load() }

// WriteResponses writes the responses-by-class counters as family name.
func (sh *Shell[T]) WriteResponses(p *stats.PromWriter, name string) {
	p.Family(name, "counter", "HTTP responses by status class.")
	for class := 1; class <= 5; class++ {
		p.Labelled(name, "class", strconv.Itoa(class)+"xx", sh.responses[class].Load())
	}
}

// Body reads r's body into the scope's reusable buffer. On failure it
// answers the request and returns false: 413 for a body over max bytes,
// 400 for any other read error, such as a body cut short of its
// Content-Length. The slice is pooled memory: what outlives the request
// must copy it.
func (sc *Scope[T]) Body(r *http.Request, max int64) ([]byte, bool) {
	sc.body.Reset()
	sc.limit = io.LimitedReader{R: r.Body, N: max + 1}
	_, err := sc.body.ReadFrom(&sc.limit)
	sc.limit.R = nil
	switch {
	case int64(sc.body.Len()) > max:
		http.Error(sc, "body: over the byte cap", http.StatusRequestEntityTooLarge)
	case err != nil:
		http.Error(sc, "body: "+err.Error(), http.StatusBadRequest)
	default:
		return sc.body.Bytes(), true
	}
	return nil, false
}

// NewClient returns a client for hosts upstreams whose pool keeps 32
// idle connections per host: http.DefaultClient keeps 2 and redials
// under any concurrency.
func NewClient(hosts int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 32
	t.MaxIdleConns = 32 * hosts
	return &http.Client{Transport: t}
}

// StatusError is a non-200 answer to Fetch.
type StatusError struct {
	Code   int
	Status string // e.g. "404 Not Found"
}

func (e *StatusError) Error() string { return e.Status }

// exactReadMax bounds the declared length Fetch allocates before any
// byte has arrived, so a lying Content-Length cannot make one fetch
// allocate gigabytes; longer bodies are read as they arrive.
const exactReadMax = 64 << 20

// Fetch GETs url and returns the body of a 200 answer in a buffer of
// exactly its declared length, since callers adopt it into a body store
// that counts len, not cap; an unknown length is read whole. Any other
// answer is drained and returned as a *StatusError.
func Fetch(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, &StatusError{Code: resp.StatusCode, Status: resp.Status}
	}
	n := resp.ContentLength
	if n < 0 || n > exactReadMax {
		return io.ReadAll(resp.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}
