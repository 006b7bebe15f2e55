package registry

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/hitstreams.golden")

// TestHitStreamGolden pins every table row's decisions: its hit count and
// an FNV-1a hash of its hit stream over rowRequests(name) requests of
// registryTrace, under TestSameEnvSameHitStream's Env, so each row's
// periodic path fires twice. A change to any baseline's tuning value or
// to the order of its PRNG draws moves the row's hash. Regenerate with
// `go test ./internal/registry -run TestHitStreamGolden -update-golden`,
// but only when a change is supposed to alter a decision.
func TestHitStreamGolden(t *testing.T) {
	tr := registryTrace(t)
	env := Env{Capacity: 300_000, Seed: 5, Interval: 2_000}
	var got strings.Builder
	for _, name := range Names() {
		n := rowRequests(name)
		h := fnv.New64a()
		hits := 0
		for _, hit := range replayRow(t, name, tr, n, env) {
			b := byte('0')
			if hit {
				b = '1'
				hits++
			}
			h.Write([]byte{b})
		}
		fmt.Fprintf(&got, "%s %d %d %016x\n", name, n, hits, h.Sum64())
	}
	path := filepath.Join("testdata", "hitstreams.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to create): %v", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d rows, replay %d:\n%s", len(wantLines), len(gotLines), got.String())
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("row moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}
