package registry

import (
	"slices"
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

// TestCanonicalNames: every name, in any case, and every alias resolves
// to its canonical display name.
func TestCanonicalNames(t *testing.T) {
	for _, e := range table {
		for _, in := range append([]string{e.name, strings.ToLower(e.name), strings.ToUpper(e.name)}, e.aliases...) {
			got, err := Canonical(in)
			if err != nil || got != e.name {
				t.Errorf("Canonical(%q) = %q, %v; want %q", in, got, err, e.name)
			}
		}
	}
}

// registryTrace generates the trace the registry fences replay, long
// enough for the longest row in rowRequests.
func registryTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := gen.Generate(gen.Config{
		Name: "registry-test", Seed: 3,
		Requests:    2 * 65_536,
		CatalogSize: 2_000,
		ZipfAlpha:   0.9,
		OneHitFrac:  0.3,
		EchoProb:    0.2, EchoDelay: 60, EchoTailFrac: 0.5,
		EpochRequests: 10_000, DriftFrac: 0.1,
		SizeMean: 1000, SizeSigma: 0.8, MinSize: 100, MaxSize: 10_000,
		Duration: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// rowRequests is how much of registryTrace a row replays: 20 000
// requests, or enough for its periodic path to fire twice. Under
// Env{Capacity: 300_000, Interval: 2_000} the periods are:
//   - SCIP, SCI: learning interval 2 000 (10 in 20 000);
//   - DIP: PSEL window 4 096; DGIPPR: epoch 4 096 (4 each in 20 000);
//   - DTA: retrain every 4 096 resolved samples (2 in 20 000);
//   - CACHEUS: λ update every 16 384 requests;
//   - GL-Cache: retrain every 32 768 requests;
//   - LHD: histogram decay every 65 536 requests;
//   - LRB: retrain every 2 048 fresh labels, first near request 26 000
//     and again near 50 000. Its 131 072-request window prune is
//     TestLRBDeterministic's (internal/lrb).
//
// The other rows have no periodic path.
func rowRequests(name string) int {
	switch name {
	case "CACHEUS":
		return 2 * 16_384
	case "GL-Cache":
		return 2 * 32_768
	case "LHD":
		return 2 * 65_536
	case "LRB":
		return 60_000
	}
	return 20_000
}

// replayRow builds name from env and returns its hit stream over the
// first n requests of tr.
func replayRow(t *testing.T, name string, tr *trace.Trace, n int, env Env) []bool {
	t.Helper()
	prefix := &trace.Trace{Requests: tr.Requests[:n]}
	build, err := Lookup(name, prefix)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	p := build(env)
	hits := make([]bool, n)
	for i, req := range prefix.Requests {
		hits[i] = p.Access(req)
	}
	return hits
}

// TestSameEnvSameHitStream: two instances built from one Env make the
// same decision on every request, for every table row, over a replay long enough for each row's periodic path to fire twice.
func TestSameEnvSameHitStream(t *testing.T) {
	tr := registryTrace(t)
	env := Env{Capacity: 300_000, Seed: 5, Interval: 2_000}
	for _, name := range Names() {
		n := rowRequests(name)
		a, b := replayRow(t, name, tr, n, env), replayRow(t, name, tr, n, env)
		if !slices.Contains(a, true) {
			t.Errorf("%s: no hits in %d requests", name, n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: request %d: first instance hit=%v, second hit=%v", name, i, a[i], b[i])
			}
		}
	}
}

// TestSeedMatters: every row whose constructor takes Env.Seed makes a
// different decision stream under seeds 5 and 6, and every other row
// makes the same one. A PRNG built from a literal instead of the
// configured seed passes TestSameEnvSameHitStream, since two fresh
// instances still agree, but fails here.
func TestSeedMatters(t *testing.T) {
	seeded := map[string]bool{
		"SCIP": true, "SCI": true, "BIP": true, "DIP": true, "PIPP": true, "DGIPPR": true,
		"DAAIP": true, "LRU-K": true, "LHD": true, "CACHEUS": true, "LRB": true,
	}
	tr := registryTrace(t)
	five := Env{Capacity: 300_000, Seed: 5, Interval: 2_000}
	six := five
	six.Seed = 6
	for _, name := range Names() {
		a, b := replayRow(t, name, tr, 20_000, five), replayRow(t, name, tr, 20_000, six)
		if differ := !slices.Equal(a, b); differ != seeded[name] {
			t.Errorf("%s: seeds 5 and 6 give different hit streams = %v, want %v", name, differ, seeded[name])
		}
	}
}

// TestLookupErrors: an unknown name, including a spec of the retired
// "scorer:" grammar and the retired admission policies (EXPERIMENTS.md
// "Retired extensions"), fails at Lookup and Canonical with the valid
// names listed, and Belady needs a trace.
func TestLookupErrors(t *testing.T) {
	for _, bad := range []string{"nope", "scorer:zro=1", "2Q", "TinyLFU", "AdaptSize"} {
		_, err := Lookup(bad, nil)
		if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
			t.Errorf("Lookup(%q): err = %v, want one listing %v", bad, err, Names())
		}
		if _, err := Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) accepted an unknown name", bad)
		}
	}
	if _, err := Lookup("belady", nil); err == nil || !strings.Contains(err.Error(), "needs a trace") {
		t.Errorf("Belady without a trace: err = %v", err)
	}
}

// TestRemoverSupport pins which registered policies support invalidation
// (cache.Remover): scip-serve answers DELETE from exactly this set and 501
// for every other name. The set is the one OPERATIONS.md's DELETE
// paragraph lists; a policy that gains or loses Remove must update both.
func TestRemoverSupport(t *testing.T) {
	removers := map[string]bool{
		"SCIP": true, "SCI": true, "LRU": true,
		"LIP": true, "BIP": true, "DIP": true, "DTA": true, "SHiP": true, "DAAIP": true, "ASC-IP": true,
	}
	tr := &trace.Trace{Requests: []cache.Request{{Key: 1, Size: 1}}}
	env := Env{Capacity: 1 << 20, Seed: 1}
	for _, name := range Names() {
		build, err := Lookup(name, tr)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if _, ok := build(env).(cache.Remover); ok != removers[name] {
			t.Errorf("%s: implements cache.Remover = %v, want %v", name, ok, removers[name])
		}
	}
}
