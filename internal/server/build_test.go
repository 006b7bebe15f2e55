package server

import "testing"

// TestBuildShardedRejectsUnknownPolicy: a policy name outside the
// registry, a scorer: spec that does not parse and the trace-bound
// Belady oracle must all come back as errors, not as a cache (scip-serve
// prints them and exits 1).
func TestBuildShardedRejectsUnknownPolicy(t *testing.T) {
	for _, policy := range []string{
		"nope",
		"scorer:zro=notanumber",
		"Belady",
	} {
		if c, err := BuildSharded(policy, 1<<20, 4, 1); err == nil {
			c.Close()
			t.Errorf("BuildSharded(%q) accepted", policy)
		}
	}
}
