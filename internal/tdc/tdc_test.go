package tdc

import (
	"sort"
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

func tdcTrace(t *testing.T, days int64) *trace.Trace {
	t.Helper()
	cfg := gen.Config{
		Name: "TDC", Seed: 21,
		Requests:    200_000,
		CatalogSize: 4_000,
		ZipfAlpha:   0.85,
		OneHitFrac:  0.12,
		EchoProb:    0.25, EchoDelay: 150, EchoTailFrac: 0.6,
		EpochRequests: 40_000, DriftFrac: 0.1,
		SizeMean: 40 * 1024, SizeSigma: 1.4, MinSize: 128, MaxSize: 8 << 20,
		Duration: days * 86_400,
	}
	tr, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testConfig is a pure-LRU hierarchy of a 256 MiB OC over a 1 GiB DC.
func testConfig() Config {
	return Config{OCCapacity: 256 << 20, DCCapacity: 1 << 30, DeployAt: -1}
}

func TestRunBucketsCoverTimeline(t *testing.T) {
	tr := tdcTrace(t, 2)
	res := run(tr, testConfig(), 3600)
	if len(res.Buckets) < 40 || len(res.Buckets) > 49 {
		t.Fatalf("buckets = %d, want ~48 for 2 days hourly", len(res.Buckets))
	}
	total := 0
	for _, b := range res.Buckets {
		total += b.Requests
		if b.BTORequests > b.Requests {
			t.Fatal("BTO count exceeds requests")
		}
	}
	if total != len(tr.Requests) {
		t.Fatalf("bucketed %d of %d requests", total, len(tr.Requests))
	}
	if res.Deployed != -1 {
		t.Fatal("no deployment configured but Deployed set")
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	sys := NewSystem(testConfig())
	r := tdcTrace(t, 1).Requests[0]
	lat1, bto1 := sys.Serve(r) // cold: origin
	if !bto1 || lat1 <= originLatencyMs {
		t.Fatalf("cold request should pay origin latency, got %.1f bto=%v", lat1, bto1)
	}
	lat2, bto2 := sys.Serve(r) // now in OC
	if bto2 || lat2 != ocLatencyMs {
		t.Fatalf("warm request should hit OC at %d ms, got %.1f", ocLatencyMs, lat2)
	}
}

func TestDCCatchesOCEvictions(t *testing.T) {
	sys := NewSystem(Config{OCCapacity: 10_000, DCCapacity: 10_000_000, DeployAt: -1})
	// Fill OC past capacity so object 1 falls out of OC but stays in DC.
	sys.Serve(cache.Request{Time: 0, Key: 1, Size: 5_000})
	for k := uint64(2); k < 10; k++ {
		sys.Serve(cache.Request{Time: int64(k), Key: k, Size: 5_000})
	}
	lat, bto := sys.Serve(cache.Request{Time: 100, Key: 1, Size: 5_000})
	if bto {
		t.Fatal("object evicted from OC should hit DC, not origin")
	}
	if lat != dcLatencyMs {
		t.Fatalf("DC hit latency = %.1f, want %d", lat, dcLatencyMs)
	}
}

func TestDeploymentImprovesOperatingPoint(t *testing.T) {
	tr := tdcTrace(t, 4)
	res := run(tr, Config{OCCapacity: 64 << 20, DCCapacity: 256 << 20, DeployAt: 2 * 86_400, Seed: 5}, 3600)
	if res.Deployed <= 0 || res.Deployed >= len(res.Buckets) {
		t.Fatalf("Deployed index = %d of %d buckets", res.Deployed, len(res.Buckets))
	}
	before, after := res.Before(), res.After()
	if before.Requests == 0 || after.Requests == 0 {
		t.Fatal("empty before/after aggregates")
	}
	// SCIP must not degrade the system; on this drift+one-hit workload it
	// should reduce the BTO ratio.
	if after.BTORatio() > before.BTORatio()+0.01 {
		t.Fatalf("BTO ratio worsened: %.4f -> %.4f", before.BTORatio(), after.BTORatio())
	}
	if !strings.Contains(res.Summary(), "before:") {
		t.Fatalf("Summary() = %q", res.Summary())
	}
}

func TestRunPercentilesReflectHierarchy(t *testing.T) {
	tr := tdcTrace(t, 2)
	// Replay the way Run does without a deployment, keeping every
	// latency of the last hourly bucket.
	sys := NewSystem(testConfig())
	last := tr.Requests[len(tr.Requests)-1].Time / 3600
	var lats []float64
	for _, req := range tr.Requests {
		lat, _ := sys.Serve(req)
		if req.Time/3600 == last {
			lats = append(lats, lat)
		}
	}
	sort.Float64s(lats)
	p50, p99 := lats[len(lats)/2], lats[len(lats)*99/100]
	// Warm steady state: median should be an OC hit, the tail an origin
	// fetch.
	if p50 != ocLatencyMs {
		t.Fatalf("p50 = %g, want OC latency %d", p50, ocLatencyMs)
	}
	if p99 < dcLatencyMs {
		t.Fatalf("p99 = %g, want >= DC latency", p99)
	}
}
