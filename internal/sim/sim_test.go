package sim

import (
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/trace"
)

func mkTrace(n int, keys int, size int64) *trace.Trace {
	t := &trace.Trace{Name: "s"}
	for i := 0; i < n; i++ {
		t.Requests = append(t.Requests, cache.Request{
			Time: int64(i), Key: uint64(i % keys), Size: size,
		})
	}
	return t
}

func TestRunCountsHitsAndMisses(t *testing.T) {
	// 3 distinct unit-size objects cycling through a cache that holds all
	// of them: 3 cold misses, everything else hits.
	tr := mkTrace(30, 3, 10)
	res := Run(tr, cache.NewLRU(100), Options{})
	if res.Misses != 3 {
		t.Fatalf("misses = %d, want 3", res.Misses)
	}
	if res.Hits != 27 {
		t.Fatalf("hits = %d, want 27", res.Hits)
	}
	if got := res.MissRatio(); got != 0.1 {
		t.Fatalf("miss ratio = %g, want 0.1", got)
	}
	if res.ByteMissRatio() != 0.1 {
		t.Fatalf("byte miss ratio = %g (uniform sizes)", res.ByteMissRatio())
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	tr := mkTrace(30, 3, 10)
	res := Run(tr, cache.NewLRU(100), Options{WarmupFrac: 0.5})
	// Cold misses happen in the warm-up half: measured region is all hits.
	if res.Misses != 0 || res.Hits != 15 {
		t.Fatalf("hits=%d misses=%d, want 15/0", res.Hits, res.Misses)
	}
}

func TestRunMetering(t *testing.T) {
	tr := mkTrace(50_000, 100, 10)
	res := Run(tr, cache.NewLRU(10_000), Options{Meter: true})
	if res.TPS <= 0 {
		t.Fatalf("TPS = %g", res.TPS)
	}
	if res.PeakHeapMiB <= 0 {
		t.Fatalf("PeakHeapMiB = %g", res.PeakHeapMiB)
	}
	if res.NsPerRequest <= 0 {
		t.Fatalf("NsPerRequest = %g", res.NsPerRequest)
	}
	if res.WallSeconds <= 0 {
		t.Fatal("WallSeconds not recorded")
	}
}

func TestResultString(t *testing.T) {
	tr := mkTrace(10, 2, 10)
	res := Run(tr, cache.NewLRU(100), Options{})
	if !strings.Contains(res.String(), "LRU") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestEmptyTrace(t *testing.T) {
	res := Run(&trace.Trace{Name: "empty"}, cache.NewLRU(100), Options{Meter: true})
	if res.MissRatio() != 0 || res.ByteMissRatio() != 0 {
		t.Fatal("empty trace should produce zero ratios")
	}
}

func TestByteMissRatioWeighting(t *testing.T) {
	// One big object missing, many small hits: byte miss ratio must far
	// exceed the object miss ratio.
	tr := &trace.Trace{Name: "w"}
	for i := 0; i < 100; i++ {
		tr.Requests = append(tr.Requests, cache.Request{Time: int64(i), Key: 1, Size: 10})
	}
	tr.Requests = append(tr.Requests, cache.Request{Time: 101, Key: 2, Size: 1_000_000})
	res := Run(tr, cache.NewLRU(500), Options{})
	if res.ByteMissRatio() <= res.MissRatio() {
		t.Fatalf("byteMiss %.4f should exceed objMiss %.4f", res.ByteMissRatio(), res.MissRatio())
	}
}
