package stats_test

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/scip-cache/scip/internal/stats"
)

// ExampleStats shows the writer/reader split: a writer records each
// access, an observer snapshots and derives ratios.
func ExampleStats() {
	st := stats.New(2)

	// Shard 0 serves a miss and then a hit, 100 bytes each; the shard
	// then holds 100 bytes and has evicted nothing.
	st.ObserveAccess(0, 100, false, 100, 0)
	st.ObserveAccess(0, 100, true, 100, 0)

	snap := st.Snapshot()
	fmt.Printf("requests: %d\n", snap.Totals().Requests)
	fmt.Printf("miss ratio: %.2f\n", snap.MissRatio())
	fmt.Printf("byte miss ratio: %.2f\n", snap.ByteMissRatio())
	// Output:
	// requests: 2
	// miss ratio: 0.50
	// byte miss ratio: 0.50
}

// ExampleSnapshot_Sub differences two snapshots into an interval view —
// the pattern behind scip-serve's live report line.
func ExampleSnapshot_Sub() {
	st := stats.New(1)
	observe := func(requests, hits int) {
		for i := 0; i < requests; i++ {
			st.ObserveAccess(0, 1, i < hits, 0, 0)
		}
	}

	observe(10, 2)
	before := st.Snapshot()

	observe(10, 8)
	after := st.Snapshot()

	interval := after.Sub(before)
	fmt.Printf("interval requests: %d\n", interval.Totals().Requests)
	fmt.Printf("interval miss ratio: %.2f\n", interval.MissRatio())
	// Output:
	// interval requests: 10
	// interval miss ratio: 0.20
}

// ExampleWritePrometheus renders a snapshot in the Prometheus text
// exposition format — what scip-serve's /metrics endpoint serves. The
// output filters one family: the full exposition also carries byte
// traffic, evictions, occupancy and the latency histogram (catalogued in
// OPERATIONS.md).
func ExampleWritePrometheus() {
	st := stats.New(2)
	for shard, requests := range []int{3, 4} {
		for i := 0; i < requests; i++ {
			st.ObserveAccess(shard, 1, false, 0, 0)
		}
	}
	st.Latency().Observe(time.Millisecond)

	var b strings.Builder
	if err := stats.WritePrometheus(&b, st.Snapshot(), "scip"); err != nil {
		panic(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		if strings.Contains(sc.Text(), "scip_requests_total") {
			fmt.Fprintln(os.Stdout, sc.Text())
		}
	}
	// Output:
	// # HELP scip_requests_total Accesses routed to the shard.
	// # TYPE scip_requests_total counter
	// scip_requests_total{shard="0"} 3
	// scip_requests_total{shard="1"} 4
}
