package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// perLayer fills res.PerLayer from the traced run of one workload. Every
// declared per-layer metric is reported; one that belongs to a layer the
// workload does not use reads 0.
func (h *harness) perLayer(w workload, res *workloadResult) error {
	got := values{}
	for _, m := range h.spec.PerLayer {
		got[m.Name] = 0
	}
	run := &runResult{}
	var err error
	if w.kind == kindReplay {
		err = h.perLayerReplay(w, got, run, res)
	} else {
		err = h.perLayerServed(w, got, run, res)
	}
	if err != nil {
		return err
	}
	if run.Metrics, err = render(h.spec.PerLayer, got); err != nil {
		return err
	}
	run.Correct = len(res.Gate) == 0 && run.Failed == 0
	res.PerLayer = run
	return nil
}

// perLayerReplay measures the layers a replay uses — gen, cache, core,
// mab, shard, stats — with micro-timings on the trace and one decorated
// replay of all of it.
func (h *harness) perLayerReplay(w workload, got values, run *runResult, res *workloadResult) error {
	t0 := time.Now()
	tr, err := genTrace(w, h.seed)
	if err != nil {
		return err
	}
	got["gen.generate_s"] = time.Since(t0).Seconds()
	shardOf, err := shardPartition(tr)
	if err != nil {
		return err
	}
	prefix, prefixShards := tr, shardOf
	if len(prefix) > microPrefix {
		prefix, prefixShards = tr[:microPrefix], shardOf[:microPrefix]
	}
	microCache(prefix, w.cacheBytes, got)
	if gate := microCore(tr, prefix, w.cacheBytes, got); gate != "" {
		res.Gate = append(res.Gate, gate)
	}
	microMAB(got)
	if err := microShard(prefix, prefixShards, w.cacheBytes, got); err != nil {
		return err
	}
	microStats(got)

	// The whole trace through the sharded front, for the counts.
	p, err := replay(tr, shardOf, w.cacheBytes, replayOpts{workers: replayWorkers()})
	if err != nil {
		return err
	}
	tot := p.snap.Totals()
	got["cache.evictions_per_kreq"] = 1000 * float64(tot.Evictions) / float64(tot.Requests)
	run.Attempted = 3 * int64(len(tr)) // bare, decorated and sharded passes over the whole trace
	res.count("traced_requests", len(tr))
	res.count("micro_prefix_requests", len(prefix))
	return nil
}

// Shares of the traced run's seconds. The real daemons get the scrapes,
// the CPU split and the high-rate diagnostics; the in-process fleet runs
// the same rate twice, decorators off then on.
const (
	shareDaemonMid  = 0.3
	shareDaemonHigh = 0.2
	shareInprocEach = 0.25
)

// perLayerServed measures the layers a served workload uses — gen,
// stats, server, cluster and the harness itself — from outside: scrapes
// and /proc of the real daemons, micro-timings, and the traced
// in-process fleet.
func (h *harness) perLayerServed(w workload, got values, run *runResult, res *workloadResult) error {
	// The stream is rebuilt from the schedule's own arithmetic, never
	// from a measured run: scip-vet's clocktaint forbids anything derived
	// from a clock read to reach the deterministic packages.
	reqs, err := buildStream(w, h.seed, w.warm+2*int(math.Round(w.mid*h.seconds*shareInprocEach)))
	if err != nil {
		return err
	}
	r, err := runServed(w, h.seed, h.seconds*shareDaemonMid, h.seconds*shareDaemonHigh, 1)
	if err != nil {
		return err
	}
	res.Gate = r.gateErrors
	run.Attempted, run.Failed = r.life.attempted, r.life.failed
	mid, high := &r.mid, r.high
	done := float64(mid.completed())

	got["gen.generate_s"] = r.genS
	got["bench.build_s"] = h.buildS
	late := windowedQuantiles(mid.samples, mid.span, window, lateOf, 0.50, 0.99)
	got["bench.gen_late_p50_us"], got["bench.gen_late_p99_us"] = late[0], late[1]
	got["bench.client_cpu_us_per_req"] = float64(mid.clientCPU) / 1e3 / done

	got["server.cpu_us_per_req"] = mid.nodeCPU
	got["server.origin_fetches"] = r.nodeSum("scip_server_origin_fetches_total")
	got["server.coalesced_waits"] = r.nodeSum("scip_server_coalesced_requests_total")
	got["server.body_refetches"] = r.nodeSum("scip_server_body_refetches_total")
	got["server.peer_fetches"] = r.nodeSum("scip_server_peer_fetches_total")
	got["server.peer_fills"] = r.nodeSum("scip_server_peer_fills_total")
	got["server.peer_serves"] = r.nodeSum("scip_server_peer_serves_total")
	got["server.gc_cycles"] = r.nodeSum("scip_server_gc_cycles_total")
	got["server.gc_pause_ms"] = 1e3 * r.nodeSum("scip_server_gc_pause_seconds_total")
	for _, p := range r.nodePages {
		if v := 1e9 * p.histQuantile("scip_access_latency_seconds", 0.99); v > got["server.access_p99_ns"] {
			got["server.access_p99_ns"] = v
		}
	}
	q := windowedQuantiles(mid.samples, mid.span, window, latOf, 0.90, 0.99, 0.999)
	got["server.lat_p90_us"] = q[0]
	got["server.lat_p99_us"] = q[1]
	got["server.lat_p999_us_mid"] = q[2]
	got["server.lat_p99_us_high"] = windowedQuantiles(high.samples, high.span, window, latOf, 0.99)[0]

	if w.kind == kindRoute {
		got["cluster.router_cpu_us_per_req"] = mid.routerCPU
		got["cluster.replicated_reads"] = r.routerPage.sum("scip_route_replicated_reads_total")
		got["cluster.hot_keys"] = r.routerPage.sum("scip_route_hot_keys")
		got["cluster.failovers"] = r.routerPage.sum("scip_route_failovers_total")
		got["cluster.node_errors"] = r.routerPage.sum("scip_route_node_errors_total")
		got["cluster.proxy_p99_us"] = 1e6 * r.routerPage.histQuantile("scip_route_proxy_latency_seconds", 0.99)
		perNode := r.routerPage.values("scip_route_node_requests_total")
		var sum, max float64
		for _, v := range perNode {
			sum += v
			max = math.Max(max, v)
		}
		if sum > 0 {
			got["cluster.node_request_skew"] = max / (sum / float64(len(perNode)))
		}
	}

	microStats(got)
	sm, err := microServer(w, reqs, got)
	if err != nil {
		return err
	}
	if w.kind == kindRoute {
		if err := microCluster(reqs, got); err != nil {
			return err
		}
	}
	// What the node processes spend outside the handler — accept, parse,
	// write, syscalls — is their CPU per request minus the handler time of
	// the phase's own mix of hits, misses, PUTs and DELETEs.
	t := mid.tally
	handlerUS := (float64(t.gets-t.getMisses)*sm.hitUS + float64(t.getMisses)*sm.missUS +
		float64(t.puts)*sm.putUS + float64(t.deletes)*sm.deleteUS) / done
	got["server.net_cpu_us_per_req"] = got["server.cpu_us_per_req"] - handlerUS

	res.count("daemon_mid_requests", len(mid.samples))
	res.count("daemon_high_requests", len(high.samples))
	cpus.serveInProcess(func() { err = h.tracedFleet(w, reqs, got, res) })
	return err
}

// tracedFleet runs the workload's mid rate against the in-process fleet
// twice — decorators off, then on — and derives the traced metrics and
// the budget table from the second phase's spans.
func (h *harness) tracedFleet(w workload, reqs []request, got values, res *workloadResult) error {
	each := h.seconds * shareInprocEach
	n := int(math.Round(w.mid * each))
	f, err := startInproc(w)
	if err != nil {
		return err
	}
	defer f.stop()
	warmer, err := newClient(f.target, warmConnections, reqs)
	if err != nil {
		return err
	}
	warm := warmer.run(0, w.warm, nil).tally
	warmer.close()
	cl, err := newClient(f.target, connections, reqs)
	if err != nil {
		return err
	}
	defer cl.close()

	off := cl.run(w.warm, n, schedule(h.seed, n, w.mid))
	f.tr.on.Store(true)
	cl.rec = f.tr.rec
	on := cl.run(w.warm+n, n, schedule(h.seed+1, n, w.mid))
	f.tr.on.Store(false)
	for _, t := range []tally{warm, off.tally, on.tally} {
		if t.failed > 0 {
			res.Gate = append(res.Gate, fmt.Sprintf("in-process fleet: %d of %d requests failed; first: %s", t.failed, t.attempted, t.firstErr))
		}
	}

	phase := time.Duration(each * float64(time.Second))
	p50off := windowedQuantiles(off.samples, phase, window, latOf, 0.50)[0]
	p50on := windowedQuantiles(on.samples, phase, window, latOf, 0.50)[0]
	got["bench.trace_overhead_pct"] = 100 * (p50on - p50off) / p50off

	spans := f.tr.rec.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b := buildBudget(spans)
	res.Budget = &b
	res.count("traced_requests", b.Requests)
	got["cluster.route_self_us"] = b.row(spanClusterRoute).SelfUS
	got["cluster.hop_us"] = b.row(spanUpstream).SelfUS
	got["cluster.peer_fetch_hit_us"] = meanDurUS(spans, func(s span) bool { return s.Name == spanPeerFetch && !s.Failed })
	got["cluster.peer_fetch_miss_us"] = meanDurUS(spans, func(s span) bool { return s.Name == spanPeerFetch && s.Failed })
	got["server.handle_self_us"] = b.row(spanServerHandle).SelfUS
	got["server.origin_fetch_us"] = meanDurUS(spans, func(s span) bool { return s.Name == spanOriginFetch })
	got["bench.client_self_us"] = b.row(spanClientRequest).SelfUS + b.row(spanClientQueue).SelfUS
	if b.SumPC < 95 || b.SumPC > 105 {
		res.Gate = append(res.Gate, fmt.Sprintf("budget: self times sum to %.1f%% of client.request, want within 5%%", b.SumPC))
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := f.tr.rec.writeJSON(path); err != nil {
		return err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("trace written to %s (%d spans)", path, len(spans)))
	return nil
}
