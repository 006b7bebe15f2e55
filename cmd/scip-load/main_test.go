package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/server"
	"github.com/scip-cache/scip/internal/shard"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/stats"
)

// TestWorkerCountInvariance is the load harness's core correctness
// property: because the trace is partitioned by shard, every shard sees
// the identical request subsequence in the identical order no matter how
// many workers replay it — so hit, byte-hit and eviction counters must be
// byte-identical between -workers 1 and -workers N.
func TestWorkerCountInvariance(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.001)

	run := func(policy string, workers int) stats.Snapshot {
		c, err := server.BuildSharded(policy, capBytes, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := runLoad(tr, c, workers, 1, 1, false, false, 0, nil)
		return snap
	}
	for _, policy := range []string{"SCIP", "LRU", "LRB"} {
		serial := run(policy, 1)
		concurrent := run(policy, 4)
		if n := serial.Totals().Requests; n != int64(len(tr.Requests)) {
			t.Fatalf("%s: serial run saw %d requests, trace has %d", policy, n, len(tr.Requests))
		}
		for i := range serial.Shards {
			a, b := serial.Shards[i], concurrent.Shards[i]
			if a.Requests != b.Requests || a.Hits != b.Hits ||
				a.BytesRequested != b.BytesRequested || a.BytesHit != b.BytesHit ||
				a.Evictions != b.Evictions || a.UsedBytes != b.UsedBytes {
				t.Fatalf("%s: shard %d diverges across worker counts:\n  1 worker: %+v\n  4 workers: %+v",
					policy, i, a, b)
			}
		}
		if serial.MissRatio() != concurrent.MissRatio() ||
			serial.ByteMissRatio() != concurrent.ByteMissRatio() {
			t.Fatalf("%s: miss ratios diverge: %v/%v vs %v/%v", policy,
				serial.MissRatio(), serial.ByteMissRatio(),
				concurrent.MissRatio(), concurrent.ByteMissRatio())
		}
	}
}

// TestRepeatExtendsRun: -repeat 2 doubles the observed request count and
// stays deterministic across worker counts.
func TestRepeatExtendsRun(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.0005, 5))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.0005)
	run := func(workers int) stats.Snapshot {
		c, err := server.BuildSharded("LRU", capBytes, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		snap, _ := runLoad(tr, c, workers, 2, 1, false, false, 0, nil)
		return snap
	}
	serial, concurrent := run(1), run(4)
	if n := serial.Totals().Requests; n != 2*int64(len(tr.Requests)) {
		t.Fatalf("repeat=2 saw %d requests, want %d", n, 2*len(tr.Requests))
	}
	if serial.Totals() != concurrent.Totals() {
		t.Fatalf("repeat run diverges: %+v vs %+v", serial.Totals(), concurrent.Totals())
	}
}

// TestIntervalSnapshotOutput runs with live reporting enabled and checks
// the snapshot lines carry the promised fields (rate, miss ratios,
// occupancy skew, p50/p99) plus the per-shard occupancy list.
func TestIntervalSnapshotOutput(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.002, 7))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.002)
	c, err := server.BuildSharded("LRU", capBytes, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	snap, _ := runLoad(tr, c, 4, 20, 1, false, true, 50*time.Millisecond, &out)
	if snap.Totals().Requests == 0 {
		t.Fatal("no requests replayed")
	}
	got := out.String()
	if got == "" {
		t.Skip("run finished before the first reporting tick on this machine")
	}
	for _, field := range []string{"req/s=", "miss=", "byteMiss=", "occSkew=", "p50=", "p99=", "shard MiB: ["} {
		if !strings.Contains(got, field) {
			t.Fatalf("interval output missing %q:\n%s", field, got)
		}
	}
}

// TestFormatLoadInterval pins the snapshot line format against a known
// delta so report parsing stays stable.
func TestFormatLoadInterval(t *testing.T) {
	st := stats.New(2)
	st.ObserveAccess(0, 100, true, 1000, 0)
	st.ObserveAccess(1, 100, false, 1000, 1)
	st.Latency().Observe(time.Millisecond)
	st.Latency().Observe(time.Millisecond)
	line := sim.FormatLoadInterval(2*time.Second, time.Second, st.Snapshot())
	for _, want := range []string{"t=    2.0s", "req/s=        2", "miss= 50.00%", "byteMiss= 50.00%", "occSkew= 1.00"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

// TestModeInvariance is the acceptance gate for the concurrency modes:
// for every policy, every combination of worker count, shard mode and
// batch size must produce byte-identical per-shard counters. A mode that
// reorders even one shard's request subsequence, or a batch path that
// accounts evictions differently, fails here.
func TestModeInvariance(t *testing.T) {
	tr, err := gen.Generate(gen.CDNT.Config(0.001, 3))
	if err != nil {
		t.Fatal(err)
	}
	capBytes := gen.CDNT.CacheBytes(64<<30, 0.001)
	variants := []struct {
		name  string
		mode  shard.Mode
		batch int
	}{
		{"mutex", shard.ModeMutex, 1},
		{"batched", shard.ModeMutex, 64},
		{"actor", shard.ModeActor, 64},
	}
	for _, policy := range []string{"SCIP", "LRU", "LRB"} {
		var want stats.Snapshot
		first := true
		for _, workers := range []int{1, 2, 4, 8} {
			for _, v := range variants {
				c, err := server.BuildSharded(policy, capBytes, 8, 1, shard.WithMode(v.mode))
				if err != nil {
					t.Fatal(err)
				}
				snap, _ := runLoad(tr, c, workers, 1, v.batch, true, false, 0, nil)
				c.Close()
				if first {
					want, first = snap, false
					continue
				}
				for i := range want.Shards {
					a, b := want.Shards[i], snap.Shards[i]
					if a.Requests != b.Requests || a.Hits != b.Hits ||
						a.BytesRequested != b.BytesRequested || a.BytesHit != b.BytesHit ||
						a.Evictions != b.Evictions || a.UsedBytes != b.UsedBytes {
						t.Fatalf("%s %s workers=%d batch=%d: shard %d diverges:\n  reference: %+v\n  got:       %+v",
							policy, v.name, workers, v.batch, i, a, b)
					}
				}
			}
		}
	}
}
