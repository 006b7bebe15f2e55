// Quickstart: generate a small synthetic CDN-T workload, run SCIP-LRU and
// plain LRU side by side, and print their miss ratios.
package main

import (
	"fmt"
	"log"

	scip "github.com/scip-cache/scip"
)

func main() {
	// A CDN-T-flavoured trace at 1/500 of the paper's size (~160k
	// requests, ~4 GiB working set).
	tr, err := scip.GenerateProfile(scip.CDNT, 0.002, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tr.ComputeStats().String())

	// 64 GB in the paper maps to 64GB × scale at this trace scale.
	capBytes := int64(64) << 30 / 500 // 64 GB at trace scale 1/500
	opts := scip.ReplayOptions{WarmupFrac: 0.2}

	lru := scip.Replay(tr, scip.NewLRU(capBytes), opts)
	sc := scip.Replay(tr, scip.NewCache(capBytes, scip.WithSeed(1)), opts)

	fmt.Printf("LRU   miss ratio: %6.2f%% (byte: %6.2f%%)\n", 100*lru.MissRatio(), 100*lru.ByteMissRatio())
	fmt.Printf("SCIP  miss ratio: %6.2f%% (byte: %6.2f%%)\n", 100*sc.MissRatio(), 100*sc.ByteMissRatio())
	fmt.Printf("Belady (object MIN, sized, whole trace): %6.2f%%\n", 100*scip.BeladyMissRatio(tr, capBytes))
}
