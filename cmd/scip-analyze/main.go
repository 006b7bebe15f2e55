// Command scip-analyze labels a trace's ZRO / A-ZRO / P-ZRO / A-P-ZRO
// occurrences under an LRU replay (the paper's Figure-1 analysis) and
// optionally reports the oracle-reduced miss ratios of Figure 3.
//
// Usage:
//
//	scip-analyze -trace cdn-t.trace -cache 512MiB [-csv] [-oracle]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/scip-cache/scip/internal/trace"
	"github.com/scip-cache/scip/internal/zro"
)

func main() {
	tracePath := flag.String("trace", "", "trace file (binary by default)")
	csv := flag.Bool("csv", false, "trace file is time,key,size CSV")
	lrbFmt := flag.Bool("lrb", false, "trace file is LRB-format (timestamp id size ...)")
	cacheSize := flag.String("cache", "512MiB", "cache capacity")
	oracle := flag.Bool("oracle", false, "also run the Figure-3 oracle placements")
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
		fail(err)
	}
	tr, err := trace.Load(*tracePath, *csv, *lrbFmt)
	if err != nil {
		fail(err)
	}

	_, sum := zro.Analyze(tr, capBytes)
	fmt.Printf("requests=%d lruMissRatio=%.4f\n", len(tr.Requests), sum.MissRatio)
	fmt.Printf("ZRO:    %6.2f%% of missing objects (%d/%d), A-ZRO %6.2f%% of ZROs\n",
		100*sum.ZROFrac(), sum.ZROs, sum.Insertions, 100*sum.AZROFrac())
	fmt.Printf("P-ZRO:  %6.2f%% of hit objects     (%d/%d), A-P-ZRO %6.2f%% of P-ZROs\n",
		100*sum.PZROFrac(), sum.PZROs, sum.Hits, 100*sum.APZROFrac())
	if *oracle {
		fmt.Printf("oracle: mr(ZRO)=%.4f mr(P-ZRO)=%.4f mr(both)=%.4f\n",
			zro.OracleReplay(tr, capBytes, true, false, 1),
			zro.OracleReplay(tr, capBytes, false, true, 1),
			zro.OracleReplay(tr, capBytes, true, true, 1))
	}
}
