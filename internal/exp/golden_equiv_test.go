//go:build !race

package exp

import (
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/admission/scorer"
	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/core"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/trace"
)

// TestScorerGoldenEquivalence swaps every SCIP construction in the
// figure tables for a zro-only scorer pipeline (a SCIP name lookup
// resolves to the scorer:zro=1 spec instead) and replays the two
// goldened figures that exercise SCIP (fig10 standalone, fig12 embedded
// in LRU-K and LRB). Byte-identical output against the committed
// goldens proves the decomposed pipeline reproduces the monolith's
// decision stream exactly. The monolith lookup and builder are restored
// afterwards so the plain golden tests keep pinning the original
// construction path.
func TestScorerGoldenEquivalence(t *testing.T) {
	origLookup, origEnh := lookupPolicy, buildSCIPEnhancer
	defer func() { lookupPolicy, buildSCIPEnhancer = origLookup, origEnh }()

	lookupPolicy = func(name string, tr *trace.Trace) (registry.Constructor, error) {
		if strings.EqualFold(name, "SCIP") {
			name = "scorer:zro=1,name=SCIP"
		}
		return origLookup(name, tr)
	}
	buildSCIPEnhancer = func(capBytes, seed int64, interval int) cache.InsertionPolicy {
		p, err := scorer.NewPipeline(capBytes, scorer.Config{
			ZRO: 1, Seed: seed, Interval: interval, Tune: true, Name: "SCIP",
			ZROOpts: []core.Option{core.ForEnhancement()},
		})
		if err != nil {
			t.Fatalf("scorer pipeline: %v", err)
		}
		return p
	}

	runGolden(t, "fig10")
	runGolden(t, "fig12")
}
