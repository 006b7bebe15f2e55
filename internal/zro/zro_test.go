package zro

import (
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

// mkTrace builds a trace of unit-size objects from a key sequence.
func mkTrace(keys ...uint64) *trace.Trace {
	t := &trace.Trace{Name: "t"}
	for i, k := range keys {
		t.Requests = append(t.Requests, cache.Request{Time: int64(i), Key: k, Size: 10})
	}
	return t
}

func TestAnalyzeLabelsZRO(t *testing.T) {
	// Cache fits 3 objects. Object 9 is inserted once, never reused, and
	// evicted by the flood of 1..4: a ZRO occurrence at index 0.
	tr := mkTrace(9, 1, 2, 3, 4, 1, 2, 3, 4)
	lb, sum := Analyze(tr, 30)
	if !lb.IsInsertion[0] {
		t.Fatal("request 0 should be an insertion")
	}
	if !lb.ZRO[0] {
		t.Fatal("object 9's insertion should be a ZRO occurrence")
	}
	if lb.AZRO[0] {
		t.Fatal("object 9 never re-hit: not an A-ZRO")
	}
	if sum.ZROs == 0 || sum.Insertions == 0 {
		t.Fatalf("summary: %+v", sum)
	}
}

func TestAnalyzeLabelsAZRO(t *testing.T) {
	// Object 9: inserted (idx 0), evicted unused (ZRO), re-inserted
	// (idx 5), then hit (idx 6) -> its earlier ZRO becomes an A-ZRO.
	tr := mkTrace(9, 1, 2, 3, 4, 9, 9)
	lb, sum := Analyze(tr, 30)
	if !lb.ZRO[0] {
		t.Fatal("first insertion of 9 should be ZRO")
	}
	if !lb.AZRO[0] {
		t.Fatal("ZRO at 0 should degrade to A-ZRO after the hit at 6")
	}
	if sum.AZROs != 1 {
		t.Fatalf("AZROs = %d, want 1", sum.AZROs)
	}
}

func TestAnalyzeLabelsPZRO(t *testing.T) {
	// Object 9: inserted (0), hit once (1), then evicted by flood with no
	// further hit: the hit at index 1 is a P-ZRO occurrence.
	tr := mkTrace(9, 9, 1, 2, 3, 4, 1, 2, 3, 4)
	lb, sum := Analyze(tr, 30)
	if !lb.IsHit[1] {
		t.Fatal("request 1 should be a hit")
	}
	if !lb.PZRO[1] {
		t.Fatal("the lone hit should be a P-ZRO occurrence")
	}
	if lb.ZRO[0] {
		t.Fatal("insertion with a hit is not a ZRO")
	}
	if sum.PZROs != 1 {
		t.Fatalf("PZROs = %d, want 1", sum.PZROs)
	}
}

func TestAnalyzeLabelsAPZRO(t *testing.T) {
	// Object 9: insert, hit (P-ZRO), evicted, re-insert, hit again ->
	// the P-ZRO becomes an A-P-ZRO.
	tr := mkTrace(9, 9, 1, 2, 3, 4, 9, 9)
	lb, sum := Analyze(tr, 30)
	if !lb.PZRO[1] {
		t.Fatal("hit at 1 should be P-ZRO")
	}
	if !lb.APZRO[1] {
		t.Fatal("P-ZRO at 1 should degrade to A-P-ZRO after the hit at 7")
	}
	if sum.APZROs != 1 {
		t.Fatalf("APZROs = %d, want 1", sum.APZROs)
	}
}

func TestAnalyzeUnresolvedExcluded(t *testing.T) {
	// Everything still resident at the end stays unresolved.
	tr := mkTrace(1, 2)
	lb, sum := Analyze(tr, 100)
	if lb.Resolved[0] || lb.Resolved[1] {
		t.Fatal("resident objects should be unresolved")
	}
	if sum.Insertions != 0 || sum.ZROs != 0 {
		t.Fatalf("unresolved events counted: %+v", sum)
	}
	if sum.MissRatio != 1 {
		t.Fatalf("miss ratio = %g, want 1", sum.MissRatio)
	}
}

func TestAnalyzeValidatedHitNotPZRO(t *testing.T) {
	// Object 9 hit twice then evicted: first hit validated, second is the
	// P-ZRO occurrence.
	tr := mkTrace(9, 9, 9, 1, 2, 3, 4, 1, 2, 3, 4)
	lb, _ := Analyze(tr, 30)
	if lb.PZRO[1] {
		t.Fatal("hit followed by another hit must not be P-ZRO")
	}
	if !lb.PZRO[2] {
		t.Fatal("final hit should be the P-ZRO occurrence")
	}
	if !lb.Resolved[1] {
		t.Fatal("validated hit should be resolved")
	}
}

func TestOracleReplayReducesMissRatio(t *testing.T) {
	tr, err := gen.Generate(gen.Config{
		Name: "zro", Seed: 5,
		Requests:    60_000,
		CatalogSize: 500,
		ZipfAlpha:   0.8,
		OneHitFrac:  0.4,
		EchoProb:    0.2, EchoDelay: 60, EchoTailFrac: 0.5,
		EpochRequests: 20_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	capBytes := int64(150_000)
	_, sum := Analyze(tr, capBytes)
	lruMR := sum.MissRatio
	zroMR := OracleReplay(tr, capBytes, true, false, 1)
	pzroMR := OracleReplay(tr, capBytes, false, true, 1)
	bothMR := OracleReplay(tr, capBytes, true, true, 1)
	noneMR := OracleReplay(tr, capBytes, true, true, 0)
	if zroMR >= lruMR {
		t.Fatalf("ZRO oracle %.4f >= LRU %.4f", zroMR, lruMR)
	}
	if pzroMR >= lruMR {
		t.Fatalf("P-ZRO oracle %.4f >= LRU %.4f", pzroMR, lruMR)
	}
	// Figure 3's headline relationship: treating both beats either alone.
	if bothMR >= zroMR || bothMR >= pzroMR {
		t.Fatalf("both-oracle %.4f should beat ZRO %.4f and P-ZRO %.4f", bothMR, zroMR, pzroMR)
	}
	if diff := noneMR - lruMR; diff > 0.001 || diff < -0.001 {
		t.Fatalf("frac-disabled oracle %.4f != LRU %.4f", noneMR, lruMR)
	}
}

func TestOracleReplayMonotoneInFraction(t *testing.T) {
	tr, err := gen.Generate(gen.Config{
		Name: "zro", Seed: 6,
		Requests:    40_000,
		CatalogSize: 400,
		ZipfAlpha:   0.8,
		OneHitFrac:  0.4,
		EchoProb:    0.2, EchoDelay: 60, EchoTailFrac: 0.5,
		EpochRequests: 20_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	capBytes := int64(120_000)
	prev := 1.0
	for _, f := range []float64{0, 0.5, 1} {
		mr := OracleReplay(tr, capBytes, true, true, f)
		if mr > prev+0.01 {
			t.Fatalf("miss ratio not (weakly) decreasing in fraction: %.4f after %.4f", mr, prev)
		}
		prev = mr
	}
}

func TestCollectEvents(t *testing.T) {
	tr := mkTrace(9, 9, 1, 2, 9)
	events := CollectEvents(tr, 30, 1)
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	if !events[0].Insertion || events[1].Insertion {
		t.Fatal("event roles wrong")
	}
	for _, e := range events {
		if len(e.Features) != 6 {
			t.Fatalf("feature width %d", len(e.Features))
		}
	}
	// Gap feature of the hit at index 1 must reflect distance 1.
	if events[1].Features[1] != 1 { // log2(1+1) = 1
		t.Fatalf("gap feature = %g, want 1", events[1].Features[1])
	}
	// Sampling.
	half := CollectEvents(tr, 30, 2)
	if len(half) >= len(events) {
		t.Fatal("sampling did not reduce events")
	}
}

func TestSummaryFracs(t *testing.T) {
	s := Summary{Insertions: 10, ZROs: 5, AZROs: 1, Hits: 20, PZROs: 4, APZROs: 2}
	if s.ZROFrac() != 0.5 || s.AZROFrac() != 0.2 || s.PZROFrac() != 0.2 || s.APZROFrac() != 0.5 {
		t.Fatalf("fracs wrong: %g %g %g %g", s.ZROFrac(), s.AZROFrac(), s.PZROFrac(), s.APZROFrac())
	}
	var empty Summary
	if empty.ZROFrac() != 0 || empty.PZROFrac() != 0 {
		t.Fatal("empty summary fracs should be 0")
	}
}
