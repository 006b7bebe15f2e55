// Command scip-sim replays a trace file against one cache policy and
// prints the resulting miss ratios.
//
// Usage:
//
//	scip-sim -trace cdn-t.trace -policy SCIP -cache 512MiB [-csv] [-warmup 0.2]
//
// -policy takes any internal/registry name (case-insensitive): SCIP,
// SCI, LRU, the Figure 8 insertion policies, the Figure 10 replacement
// algorithms and the Belady oracle (the names scip-serve takes too, all
// but Belady).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/sim"
	"github.com/scip-cache/scip/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (binary by default)")
	csv := flag.Bool("csv", false, "trace file is time,key,size CSV")
	lrbFmt := flag.Bool("lrb", false, "trace file is LRB-format (timestamp id size ...)")
	policy := flag.String("policy", "SCIP", "cache policy: "+strings.Join(registry.Names(), ", "))
	cacheSize := flag.String("cache", "512MiB", "cache capacity (supports KiB/MiB/GiB suffixes)")
	warmup := flag.Float64("warmup", 0.2, "warm-up fraction excluded from metrics")
	seed := flag.Int64("seed", 1, "policy seed")
	meter := flag.Bool("meter", false, "measure throughput and peak memory")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *tracePath == "" {
		fail(fmt.Errorf("-trace is required"))
	}
	capBytes, err := trace.ParseBytes(*cacheSize)
	if err != nil {
		fail(fmt.Errorf("bad -cache: %w", err))
	}
	tr, err := trace.Load(*tracePath, *csv, *lrbFmt)
	if err != nil {
		fail(err)
	}
	build, err := registry.Lookup(*policy, tr)
	if err != nil {
		fail(err)
	}
	res := sim.Run(tr, build(registry.Env{Capacity: capBytes, Seed: *seed}), sim.Options{WarmupFrac: *warmup, Meter: *meter})
	fmt.Println(res.String())
	if *meter {
		fmt.Printf("tps=%.0f req/s  peakHeap=%.1f MiB  cpu=%.0f ns/req\n",
			res.TPS, res.PeakHeapMiB, res.NsPerRequest)
	}
}
