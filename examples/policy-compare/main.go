// policy-compare races SCIP against the paper's insertion-policy
// baselines (Figure 8's cast) on one synthetic workload and prints a
// ranked table.
package main

import (
	"fmt"
	"log"
	"sort"

	scip "github.com/scip-cache/scip"
	"github.com/scip-cache/scip/internal/registry"
)

func main() {
	tr, err := scip.GenerateProfile(scip.CDNA, 0.002, 7)
	if err != nil {
		log.Fatal(err)
	}
	capBytes := int64(64) << 30 / 500 // 64 GB at trace scale 1/500
	seed := int64(1)

	// Every name resolves through the one policy table the binaries use.
	contenders := []string{"SCIP", "LRU", "LIP", "BIP", "DIP", "PIPP", "SHiP", "DTA", "DGIPPR", "DAAIP", "ASC-IP"}

	type row struct {
		name string
		res  scip.ReplayResult
	}
	var rows []row
	for _, name := range contenders {
		build, err := registry.Lookup(name, tr)
		if err != nil {
			log.Fatal(err)
		}
		p := build(registry.Env{Capacity: capBytes, Seed: seed})
		rows = append(rows, row{name, scip.Replay(tr, p, scip.ReplayOptions{WarmupFrac: 0.2})})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].res.MissRatio() < rows[j].res.MissRatio() })

	fmt.Printf("workload %s, cache %d MiB\n", tr.Name, capBytes>>20)
	fmt.Printf("%-8s %10s %10s\n", "policy", "missRatio", "byteMiss")
	for _, r := range rows {
		fmt.Printf("%-8s %9.2f%% %9.2f%%\n", r.name, 100*r.res.MissRatio(), 100*r.res.ByteMissRatio())
	}
	fmt.Printf("%-8s %9.2f%%  (object MIN, sized, whole trace: not a bound)\n", "Belady", 100*scip.BeladyMissRatio(tr, capBytes))
}
