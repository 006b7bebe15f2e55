package server

import "testing"

// TestBuildShardedRejectsUnknownPolicy: a policy name outside the
// registry, a spec of the retired "scorer:" grammar and the trace-bound
// Belady oracle must all come back as errors, not as a cache (scip-serve
// prints them and exits 1 at start-up).
func TestBuildShardedRejectsUnknownPolicy(t *testing.T) {
	for _, policy := range []string{
		"nope",
		"scorer:zro=1",
		"Belady",
	} {
		if c, err := BuildSharded(policy, 1<<20, 4, 1); err == nil {
			c.Close()
			t.Errorf("BuildSharded(%q) accepted", policy)
		}
	}
}
