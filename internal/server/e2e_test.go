package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/stats"
	"github.com/scip-cache/scip/internal/trace"
)

// TestEndToEndMatchesInProcessReplay is the daemon's determinism
// acceptance test: replaying a generated trace over loopback HTTP
// against scip-serve — shard-partitioned across concurrent clients,
// exactly as runner.ReplaySharded partitions its workers — produces
// per-shard counters and object/byte miss ratios byte-identical to an
// in-process replay of the same trace against the same sharded cache. It
// also checks that /metrics emits valid Prometheus text and that shutdown
// drains cleanly afterwards.
func TestEndToEndMatchesInProcessReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e replay is seconds-long; skipped with -short")
	}
	const (
		scale   = 0.0002
		seed    = 7
		shards  = 4
		clients = 4
	)
	tr, err := gen.Generate(gen.CDNT.Config(scale, seed))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, scale)
	t.Logf("trace: %d requests, cache %.1f MiB, %d shards, %d clients",
		len(tr.Requests), float64(capBytes)/(1<<20), shards, clients)

	// LHD: parity must hold for a replacement algorithm too, not only for
	// the SCIP/LRU queue caches.
	for _, policy := range []string{"SCIP", "LRU", "LHD"} {
		t.Run(policy, func(t *testing.T) {
			want := inProcessReplay(t, tr, policy, capBytes, shards)
			got := daemonReplay(t, tr, policy, capBytes, shards, clients)
			compareSnapshots(t, want, got, shards)
		})
	}
}

// inProcessReplay is the in-process ground truth: a serial replay of the
// trace through the same sharded construction the daemon uses.
func inProcessReplay(t *testing.T, tr *trace.Trace, policy string, capBytes int64, shards int) stats.Snapshot {
	t.Helper()
	c, err := BuildSharded(policy, capBytes, shards, seedE2E)
	if err != nil {
		t.Fatal(err)
	}
	st := c.EnableStats()
	for _, req := range tr.Requests {
		c.Access(req)
	}
	return st.Snapshot()
}

const seedE2E = 7

// daemonReplay starts a real scip-serve instance on loopback and replays
// the trace through it: each client goroutine owns the shards whose
// index ≡ client (mod clients) and issues that partition's requests
// sequentially in trace order, so every shard sees the identical access
// sequence as the in-process replay.
func daemonReplay(t *testing.T, tr *trace.Trace, policy string, capBytes int64, shards, clients int) stats.Snapshot {
	t.Helper()
	s, err := New(Config{
		Policy:     policy,
		CacheBytes: capBytes,
		Shards:     shards,
		Seed:       seedE2E,
		Origin:     &SyntheticOrigin{MaxBody: 64},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ListenAndServe(ctx, "127.0.0.1:0", 10*time.Second, ready) }()
	var addr string
	select {
	case a := <-ready:
		addr = a.String()
	case err := <-serveErr:
		t.Fatalf("listen: %v", err)
	}

	// Partition by shard exactly like runner.ReplaySharded.
	shardOf := make([]int, len(tr.Requests))
	for i, req := range tr.Requests {
		shardOf[i] = s.Cache().ShardIndex(req.Key)
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients * 2}}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, req := range tr.Requests {
				if shardOf[i]%clients != w {
					continue
				}
				url := fmt.Sprintf("http://%s/obj/%d?size=%d&t=%d", addr, req.Key, req.Size, req.Time)
				resp, err := client.Get(url)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The exposition endpoint must be valid Prometheus text after a real
	// workload.
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	validatePromText(t, string(metricsText))

	snap := s.Stats().Snapshot()

	// Graceful shutdown must drain cleanly with no requests in flight.
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	return snap
}

// compareSnapshots asserts the per-shard counters and derived ratios are
// byte-identical between the two replays.
func compareSnapshots(t *testing.T, want, got stats.Snapshot, shards int) {
	t.Helper()
	for i := 0; i < shards; i++ {
		w, g := want.Shards[i], got.Shards[i]
		if w != g {
			t.Errorf("shard %d diverged:\n  in-process: %+v\n  daemon:     %+v", i, w, g)
		}
	}
	if w, g := want.MissRatio(), got.MissRatio(); w != g {
		t.Errorf("miss ratio: in-process %v, daemon %v", w, g)
	}
	if w, g := want.ByteMissRatio(), got.ByteMissRatio(); w != g {
		t.Errorf("byte miss ratio: in-process %v, daemon %v", w, g)
	}
	if t.Failed() {
		return
	}
	t.Logf("byte-identical: miss=%.6f byteMiss=%.6f over %d requests",
		got.MissRatio(), got.ByteMissRatio(), got.Totals().Requests)
}

var promSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? ` +
		`(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$`)

// validatePromText checks every line of a /metrics body against the
// Prometheus text exposition format 0.0.4: lines are HELP/TYPE comments
// or samples, every sample's family has a preceding TYPE, and the
// scip-side families the daemon promises are all present.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	typed := make(map[string]string)
	sampled := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := sc.Text()
		switch {
		case s == "":
		case strings.HasPrefix(s, "# HELP ") || strings.HasPrefix(s, "# TYPE "):
			f := strings.Fields(s)
			if len(f) < 4 {
				t.Errorf("line %d: malformed comment %q", line, s)
				continue
			}
			if f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
		case strings.HasPrefix(s, "#"):
			t.Errorf("line %d: unknown comment form %q", line, s)
		default:
			if !promSampleRE.MatchString(s) {
				t.Errorf("line %d: malformed sample %q", line, s)
				continue
			}
			name := s[:strings.IndexAny(s, "{ ")]
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && typed[base] == "histogram" {
					family = base
				}
			}
			if _, ok := typed[family]; !ok {
				t.Errorf("line %d: sample %q has no preceding # TYPE", line, name)
			}
			sampled[family] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"scip_requests_total", "scip_hits_total", "scip_bytes_requested_total",
		"scip_bytes_hit_total", "scip_evictions_total", "scip_used_bytes",
		"scip_access_latency_seconds",
		"scip_server_origin_fetches_total", "scip_server_http_responses_total",
		"scip_server_inflight_requests", "scip_server_uptime_seconds",
	} {
		if !sampled[family] {
			t.Errorf("metrics missing family %s", family)
		}
	}
}
