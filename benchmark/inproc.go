package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scip-cache/scip/internal/cluster"
	"github.com/scip-cache/scip/internal/server"
)

// The traced run uses a fleet assembled in this process from the same
// constructors the binaries use — server.New, cluster.NewRouter,
// cluster.NewPeerClient — with a span-recording decorator at every
// public injection point: the two Handler()s, Config.Origin,
// Config.PeerFill, and the http.Clients of the router and the peer
// client. Nothing inside the program is touched.

// tracer switches the decorators on and off: the same fleet serves the
// untraced phase and the traced one, and the difference between the two
// is the tracing overhead.
type tracer struct {
	on  atomic.Bool
	rec *recorder
}

// spanCtx is what a decorator leaves in the request context for the
// decorators below it.
type spanCtx struct {
	id  uint64
	req int64
}

type spanKey struct{}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// requestID reads the t value off a raw query ("size=…&t=…"); -1 when
// there is none (a /peer request).
func requestID(rawQuery string) int64 {
	i := strings.LastIndex(rawQuery, "t=")
	if i < 0 || (i > 0 && rawQuery[i-1] != '&') {
		return -1
	}
	v, err := strconv.ParseInt(rawQuery[i+2:], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// handler wraps a Handler(): one span per /obj or /peer request, parent
// taken from the X-Bench-Span header, own id left in the context.
func (t *tracer) handler(objSpan string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch {
		case !t.on.Load():
		case strings.HasPrefix(r.URL.Path, "/obj/"):
			name = objSpan
		case strings.HasPrefix(r.URL.Path, "/peer/"):
			name = spanPeerServe
		}
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sc := spanCtx{id: t.rec.newID(), req: requestID(r.URL.RawQuery)}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sc)))
		t.rec.add(sc.id, parent, sc.req, name, start, time.Now())
	})
}

// tracedOrigin wraps Config.Origin or Config.PeerFill. The server hands
// Fetch a context detached from cancellation but not from values, so
// the handler's span is still there to be the parent.
type tracedOrigin struct {
	t    *tracer
	name string
	next server.Origin
}

func (o *tracedOrigin) Fetch(ctx context.Context, key uint64, size int64) ([]byte, int64, error) {
	parent := spanFrom(ctx)
	if !o.t.on.Load() || parent.id == 0 {
		return o.next.Fetch(ctx, key, size)
	}
	sc := spanCtx{id: o.t.rec.newID(), req: parent.req}
	start := time.Now()
	body, objSize, err := o.next.Fetch(context.WithValue(ctx, spanKey{}, sc), key, size)
	end := time.Now()
	o.t.rec.addSpan(span{ID: sc.id, Parent: parent.id, Req: sc.req, Name: o.name,
		Start: start.UnixNano(), End: end.UnixNano(), Failed: err != nil})
	return body, objSize, err
}

// tracedTransport wraps the RoundTripper of RouterConfig.Client (name =
// cluster.upstream: one span per proxied attempt, ending when the
// response body is closed) or of the peer client (name = "": it only
// carries the peer_fetch span's id across). The outgoing request is the
// caller's own fresh one, so the header is set in place.
type tracedTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if !rt.t.on.Load() || parent.id == 0 {
		return rt.next.RoundTrip(req)
	}
	if rt.name == "" {
		req.Header.Set(spanHeader, strconv.FormatUint(parent.id, 10))
		return rt.next.RoundTrip(req)
	}
	id := rt.t.rec.newID()
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		rt.t.rec.add(id, parent.id, parent.req, rt.name, start, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		rt.t.rec.add(id, parent.id, parent.req, rt.name, start, time.Now())
	}}
	return resp, nil
}

// spanBody ends its span when the proxy has copied the body back and
// closes it.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// inprocFleet is the workload's fleet, serving on loopback listeners of
// this process.
type inprocFleet struct {
	tr      *tracer
	target  string
	opened  []net.Listener // closed again at stop, served or not
	servers []*http.Server
	nodes   []*server.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func pooledTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 32, MaxIdleConns: 32 * routeNodes}
}

// startInproc wires the fleet the way cmd/scip-serve and cmd/scip-route
// do, decorators included, and starts serving.
func startInproc(w workload) (*inprocFleet, error) {
	nNodes := 1
	if w.kind == kindRoute {
		nNodes = routeNodes
	}
	f := &inprocFleet{tr: &tracer{rec: &recorder{}}}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	listeners := make([]net.Listener, nNodes)
	urls := make([]string, nNodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		listeners[i] = l
		f.opened = append(f.opened, l)
		urls[i] = "http://" + l.Addr().String()
	}
	serve := func(l net.Listener, h http.Handler) {
		hs := &http.Server{Handler: h}
		f.servers = append(f.servers, hs)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			hs.Serve(l) // returns http.ErrServerClosed at stop
		}()
	}
	for i, l := range listeners {
		cfg := server.Config{
			Policy: policyName, CacheBytes: w.cacheBytes, Shards: shardCount, Seed: policySeed,
			Origin: &tracedOrigin{t: f.tr, name: spanOriginFetch, next: &server.SyntheticOrigin{Latency: w.originLatency}},
		}
		if w.kind == kindRoute {
			pc, err := cluster.NewPeerClient(urls, urls[i], 64, 1,
				&http.Client{Transport: &tracedTransport{t: f.tr, next: pooledTransport()}})
			if err != nil {
				f.stop()
				return nil, err
			}
			cfg.PeerFill = &tracedOrigin{t: f.tr, name: spanPeerFetch, next: pc}
		}
		s, err := server.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, s)
		serve(l, f.tr.handler(spanServerHandle, s.Handler()))
	}
	f.target = listeners[0].Addr().String()
	if w.kind == kindRoute {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Nodes: urls, Replicate: true,
			Client: &http.Client{Transport: &tracedTransport{t: f.tr, name: spanUpstream, next: pooledTransport()}},
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.opened = append(f.opened, l)
		f.target = l.Addr().String()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			rt.Registry().Watch(ctx, 2*time.Second) // the health loop Router.Serve would run
		}()
		serve(l, f.tr.handler(spanClusterRoute, rt.Handler()))
	}
	return f, nil
}

// stop shuts every server down, drained, and waits for the goroutines
// the fleet started.
func (f *inprocFleet) stop() {
	f.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, hs := range f.servers {
		hs.Shutdown(ctx)
	}
	for _, l := range f.opened {
		l.Close()
	}
	f.wg.Wait()
	for _, s := range f.nodes {
		s.Close()
	}
}
