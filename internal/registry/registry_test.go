package registry

import (
	"strings"
	"testing"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/gen"
	"github.com/scip-cache/scip/internal/trace"
)

// TestCanonicalNames: every name, in any case, and every alias resolves
// to its canonical display name; a scorer spec is its own name.
func TestCanonicalNames(t *testing.T) {
	for _, e := range table {
		for _, in := range append([]string{e.name, strings.ToLower(e.name), strings.ToUpper(e.name)}, e.aliases...) {
			got, err := Canonical(in)
			if err != nil || got != e.name {
				t.Errorf("Canonical(%q) = %q, %v; want %q", in, got, err, e.name)
			}
		}
	}
	const spec = "scorer:zro=1,name=Z"
	if got, err := Canonical(spec); err != nil || got != spec {
		t.Errorf("Canonical(%q) = %q, %v", spec, got, err)
	}
}

// TestSameEnvSameHitStream: two instances built from one Env make the
// same decision on every request, for every table row and a scorer spec.
func TestSameEnvSameHitStream(t *testing.T) {
	tr, err := gen.Generate(gen.Config{
		Name: "registry-test", Seed: 3,
		Requests:    20_000,
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
	env := Env{Capacity: 300_000, Seed: 5, Interval: 2_000}
	for _, name := range append(Names(), "scorer:zro=0.5,size=0.3,freq=0.2") {
		build, err := Lookup(name, tr)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		a, b := build(env), build(env)
		hits := 0
		for i, req := range tr.Requests {
			ha, hb := a.Access(req), b.Access(req)
			if ha != hb {
				t.Fatalf("%s: request %d: first instance hit=%v, second hit=%v", name, i, ha, hb)
			}
			if ha {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("%s: no hits in %d requests", name, len(tr.Requests))
		}
	}
}

// TestLookupErrors: an unknown name lists the valid ones, a malformed
// scorer spec fails at Lookup rather than at construction, and Belady
// needs a trace.
func TestLookupErrors(t *testing.T) {
	_, err := Lookup("nope", nil)
	if err == nil || !strings.Contains(err.Error(), strings.Join(Names(), ", ")) {
		t.Errorf("unknown name: err = %v, want one listing %v", err, Names())
	}
	for _, bad := range []string{"scorer:zro=x", "scorer:bogus=1", "scorer:", "SCORER:zro=1,mode=nope"} {
		if _, err := Lookup(bad, nil); err == nil {
			t.Errorf("Lookup(%q) accepted a malformed spec", bad)
		}
		if _, err := Canonical(bad); err == nil {
			t.Errorf("Canonical(%q) accepted a malformed spec", bad)
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
		"2Q": true, "TinyLFU": true, "AdaptSize": true,
		"scorer:zro=1": true,
	}
	tr := &trace.Trace{Requests: []cache.Request{{Key: 1, Size: 1}}}
	env := Env{Capacity: 1 << 20, Seed: 1}
	for _, name := range append(Names(), "scorer:zro=1") {
		build, err := Lookup(name, tr)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if _, ok := build(env).(cache.Remover); ok != removers[name] {
			t.Errorf("%s: implements cache.Remover = %v, want %v", name, ok, removers[name])
		}
	}
}
