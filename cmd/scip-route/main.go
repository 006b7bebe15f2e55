// Command scip-route is the stateless routing tier in front of a fleet
// of scip-serve nodes: it consistent-hashes object keys across the fleet
// (a ring of virtual nodes over the node URLs), load-balances reads of
// router-detected hot keys across a replica set, fans hot writes and
// invalidations out to that set, fails over to ring successors when a
// node stops answering, and exports its own scip_route_* Prometheus
// metrics. The router holds no object state — health, the frequency
// sketch and every counter are soft hints rebuilt from traffic — so
// instances can be restarted or scaled out behind a TCP balancer without
// any handoff. See CLUSTER.md for the operator guide.
//
// Usage:
//
//	scip-route -nodes http://10.0.0.1:8344,http://10.0.0.2:8344 [-addr :8380]
//	    [-replicate] [-node-timeout 2s] [-health-interval 2s]
//	    [-max-body 1MiB] [-drain 10s] [-interval 10s]
//
// A hot key is one of the 16 keys with the highest sketch estimates, once
// its estimate reaches 64; its replica set is its owner and the owner's
// ring successor. A node is marked down after 3 consecutive failures.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/scip-cache/scip/internal/cluster"
	"github.com/scip-cache/scip/internal/stats"
	"github.com/scip-cache/scip/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8380", "listen address")
	nodes := flag.String("nodes", "", "comma-separated scip-serve base URLs (the ring identities; required)")
	replicate := flag.Bool("replicate", false, "enable hot-key replication (spread hot reads over 2 replicas, fan out hot writes)")
	nodeTimeout := flag.Duration("node-timeout", 2*time.Second, "per-attempt proxy timeout")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "background /healthz probe period")
	maxBody := flag.String("max-body", "1MiB", "accepted PUT body size cap")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout (0 waits indefinitely)")
	interval := flag.Duration("interval", 10*time.Second, "live stats line period on stdout (0 disables)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "scip-route:", err)
		os.Exit(1)
	}

	nodeList := cluster.SplitNodes(*nodes)
	if len(nodeList) == 0 {
		fail(fmt.Errorf("-nodes is required (comma-separated scip-serve base URLs)"))
	}
	maxBodyBytes, err := trace.ParseBytes(*maxBody)
	if err != nil {
		fail(fmt.Errorf("bad -max-body: %w", err))
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:          nodeList,
		Replicate:      *replicate,
		NodeTimeout:    *nodeTimeout,
		HealthInterval: *healthInterval,
		MaxBodyBytes:   maxBodyBytes,
	})
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *interval > 0 {
		go reportLoop(ctx, rt, *interval)
	}

	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- rt.ListenAndServe(ctx, *addr, *drain, ready) }()
	select {
	case a := <-ready:
		fmt.Printf("scip-route: listening on %s, %d nodes, %d vnodes/node, replicate=%v\n",
			a, len(nodeList), cluster.VNodes, *replicate)
	case err := <-errc:
		fail(err)
	}
	<-ctx.Done()
	fmt.Println("scip-route: shutting down, draining in-flight requests")
	if err := <-errc; err != nil {
		fail(err)
	}
	total, failovers, unroutable := rt.Requests()
	fmt.Printf("scip-route: routed %d requests (%d failovers, %d unroutable), bye\n",
		total, failovers, unroutable)
}

// reportLoop prints one router status line per interval.
func reportLoop(ctx context.Context, rt *cluster.Router, interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var prevTotal int64
	prevT := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			total, failovers, unroutable := rt.Requests()
			rate := float64(total-prevTotal) / now.Sub(prevT).Seconds()
			buckets, sum := rt.Latency()
			snap := stats.Snapshot{Latency: buckets, LatencySumNanos: sum}
			fmt.Printf("route: %8.0f req/s  total=%d failovers=%d unroutable=%d p50=%s p99=%s\n",
				rate, total, failovers, unroutable,
				snap.LatencyQuantile(0.50), snap.LatencyQuantile(0.99))
			prevTotal, prevT = total, now
		}
	}
}
