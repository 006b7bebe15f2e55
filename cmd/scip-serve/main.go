// Command scip-serve is a networked cache daemon fronting the sharded
// SCIP cache: an HTTP server with GET/PUT/DELETE on /obj/{key}, per-shard
// request coalescing for concurrent misses, a configurable upstream
// origin (timeout, bounded retry with exponential backoff, optional
// serve-stale degradation), Prometheus metrics on /metrics, liveness and
// status endpoints, and graceful shutdown that drains in-flight requests
// on SIGINT/SIGTERM.
//
// Usage:
//
//	scip-serve [-addr :8344] [-policy SCIP] [-cache 256MiB] [-shards 8] [-seed 1]
//	    [-mode mutex|actor]
//	    [-origin URL] [-origin-timeout 2s] [-origin-retries 2] [-origin-backoff 50ms]
//	    [-origin-latency 0] [-serve-stale] [-max-body 1MiB] [-drain 10s] [-interval 10s]
//	    [-peers URL,URL,... -self URL]
//	    [-peer-timeout 500ms] [-peer-retries 0] [-peer-backoff 25ms]
//
// Without -origin the daemon fronts a deterministic synthetic origin
// (bodies are a pure function of the key), which is what trace replay
// and the end-to-end tests use; with -origin URL misses are fetched from
// GET URL/<key>. With -peers (the full fleet node list, including this
// node's own -self URL) a declared-size miss first asks the key's next
// ring successor for its stored body via GET /peer/{key} and only falls
// back to the origin when that peer does not hold it — see CLUSTER.md.
// See OPERATIONS.md for the endpoint contract, the full metrics
// catalogue and worked examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/scip-cache/scip/internal/cluster"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/trace"
)

// peerFanout is the number of ring successors asked per peer-fill attempt.
const peerFanout = 1

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	policy := flag.String("policy", "SCIP", "sharded policy: "+strings.Join(registry.Names(), ", ")+" (all but Belady, which needs a trace)")
	cacheSize := flag.String("cache", "256MiB", "cache capacity (KiB/MiB/GiB suffixes)")
	shards := flag.Int("shards", 8, "shard count (rounded up to a power of two)")
	seed := flag.Int64("seed", 1, "policy seed (shard i gets seed+i)")
	modeFlag := flag.String("mode", "mutex", "shard concurrency mode: mutex or actor (DESIGN.md §10)")
	originURL := flag.String("origin", "", "upstream origin base URL (empty: deterministic synthetic origin)")
	originTimeout := flag.Duration("origin-timeout", 2*time.Second, "per-attempt origin fetch timeout")
	originRetries := flag.Int("origin-retries", 2, "origin fetch retries after the first failure")
	originBackoff := flag.Duration("origin-backoff", 50*time.Millisecond, "delay before the first retry (doubles per attempt)")
	originLatency := flag.Duration("origin-latency", 0, "artificial synthetic-origin latency (ignored with -origin)")
	serveStale := flag.Bool("serve-stale", false, "serve a stored stale body when every origin attempt fails")
	maxBody := flag.String("max-body", "1MiB", "stored/accepted body size cap")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout (0 waits indefinitely)")
	interval := flag.Duration("interval", 10*time.Second, "live stats line period on stdout (0 disables)")
	peers := flag.String("peers", "", "comma-separated fleet node base URLs, including this node's -self (enables peer-fill)")
	self := flag.String("self", "", "this node's base URL within -peers")
	peerTimeout := flag.Duration("peer-timeout", 500*time.Millisecond, "per-attempt peer fetch timeout")
	peerRetries := flag.Int("peer-retries", 0, "peer fetch retries after the first failure")
	peerBackoff := flag.Duration("peer-backoff", 25*time.Millisecond, "delay before the first peer retry (doubles per attempt)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "scip-serve:", err)
		os.Exit(1)
	}

	capBytes, err := trace.ParseBytes(*cacheSize)
	if err != nil {
		fail(fmt.Errorf("bad -cache: %w", err))
	}
	maxBodyBytes, err := trace.ParseBytes(*maxBody)
	if err != nil {
		fail(fmt.Errorf("bad -max-body: %w", err))
	}
	mode, err := shard.ParseMode(*modeFlag)
	if err != nil {
		fail(err)
	}
	cfg := server.Config{
		Policy:        *policy,
		CacheBytes:    capBytes,
		Shards:        *shards,
		Seed:          *seed,
		Mode:          mode,
		OriginTimeout: *originTimeout,
		OriginRetries: *originRetries,
		OriginBackoff: *originBackoff,
		ServeStale:    *serveStale,
		MaxBodyBytes:  maxBodyBytes,
	}
	if *originURL != "" {
		cfg.Origin = &server.HTTPOrigin{Base: *originURL}
	} else {
		cfg.Origin = &server.SyntheticOrigin{Latency: *originLatency}
	}
	if *peers != "" {
		pc, err := cluster.NewPeerClient(cluster.SplitNodes(*peers), strings.TrimRight(*self, "/"), cluster.VNodes, peerFanout, nil)
		if err != nil {
			fail(fmt.Errorf("bad -peers/-self: %w", err))
		}
		cfg.PeerFill = pc
		cfg.PeerTimeout = *peerTimeout
		cfg.PeerRetries = *peerRetries
		cfg.PeerBackoff = *peerBackoff
	}
	s, err := server.New(cfg)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *interval > 0 {
		go reportLoop(ctx, s, *interval)
	}

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, *addr, *drain, ready) }()
	select {
	case a := <-ready:
		fmt.Printf("scip-serve: %s listening on %s (origin: %s)\n",
			s.Cache().Name(), a, originName(*originURL))
	case err := <-errc:
		fail(err)
	}
	<-ctx.Done()
	fmt.Println("scip-serve: shutting down, draining in-flight requests")
	if err := <-errc; err != nil {
		fail(err)
	}
	s.Close() // requests have drained; stop the actor goroutines
	snap := s.Stats().Snapshot()
	tot := snap.Totals()
	fmt.Printf("scip-serve: served %d requests (miss=%.4f byteMiss=%.4f), bye\n",
		tot.Requests, snap.MissRatio(), snap.ByteMissRatio())
}

func originName(url string) string {
	if url == "" {
		return "synthetic"
	}
	return url
}

// reportLoop prints one sim.FormatLoadInterval line per interval while
// the daemon serves: request rate, miss ratios, occupancy skew and access
// latency over the interval.
func reportLoop(ctx context.Context, s *server.Server, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	start := time.Now()
	prev := s.Stats().Snapshot()
	prevT := start
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			cur := s.Stats().Snapshot()
			fmt.Println(sim.FormatLoadInterval(now.Sub(start), now.Sub(prevT), cur.Sub(prev)))
			prev, prevT = cur, now
		}
	}
}
