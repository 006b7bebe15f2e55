package server

import (
	"fmt"

	"github.com/scip-cache/scip/internal/cache"
	"github.com/scip-cache/scip/internal/registry"
	"github.com/scip-cache/scip/internal/shard"
)

// BuildSharded returns a sharded cache front for any policy name or
// "scorer:" spec the registry resolves (internal/registry), except the
// offline Belady oracle, which needs a trace. Each shard gets its own
// single-threaded policy instance seeded by seed + shard index, so a
// given (policy, capacity, shards, seed) tuple always produces the same
// decision stream — the property scip-serve's end-to-end comparison and
// the replay-invariance fences (internal/runner) rest on. The daemon, the
// fences and the benchmark build their cache through this one function.
// opts selects the shard concurrency configuration
// (shard.WithMode, shard.WithActorDepth); the decision stream is
// identical in every mode.
func BuildSharded(policy string, capBytes int64, shards int, seed int64, opts ...shard.Option) (*shard.Cache, error) {
	build, err := registry.Lookup(policy, nil)
	if err != nil {
		return nil, err
	}
	name, _ := registry.Canonical(policy) // cannot fail: Lookup accepted policy
	return shard.New(fmt.Sprintf("%s-x%d", name, shards), capBytes, shards, func(b int64, s int) cache.Policy {
		return build(registry.Env{Capacity: b, Seed: seed + int64(s)})
	}, opts...)
}
