// Command scip-sim replays a trace file against one cache policy and
// prints the resulting miss ratios.
//
// Usage:
//
//	scip-sim -trace cdn-t.trace -policy SCIP -cache 512MiB [-csv] [-warmup 0.2]
//
// -policy takes any internal/registry name (case-insensitive): SCIP,
// SCI, LRU, the Figure 8 insertion policies, the Figure 10 replacement
// algorithms, the §7 admission policies and the Belady oracle (the
// names scip-serve takes too, all but Belady), plus
// composable admission mixes via "scorer:" specs, e.g.
// -policy scorer:zro=0.6,size=0.2,freq=0.2 (see internal/admission/scorer).
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
	policy := flag.String("policy", "SCIP", "cache policy: "+strings.Join(registry.Names(), ", ")+", or a scorer: spec")
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
	f, err := os.Open(*tracePath)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	var tr *trace.Trace
	switch {
	case *csv:
		tr, err = trace.ReadCSV(f, *tracePath)
	case *lrbFmt:
		tr, err = trace.ReadLRB(f, *tracePath)
	default:
		tr, err = trace.ReadBinary(f, *tracePath)
	}
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
