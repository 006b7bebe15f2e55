// Package shard provides a concurrent cache front: requests are hash-
// partitioned across N independent shards, each holding its own policy
// instance (SCIP-LRU, LRB, ...) behind its own mutex. This mirrors how
// production CDN nodes parallelise a single logical cache — TDC's
// prototype runs a multi-ccd/multi-smcd process model — while keeping
// every policy implementation single-threaded and simple.
//
// Sharding by key hash preserves per-object decisions exactly (an object
// always lands on the same shard) and divides the byte budget evenly;
// recency interleaving across shards is the standard approximation and
// costs well under a point of miss ratio at 2^4..2^8 shards for CDN-scale
// object counts (see the package tests).
//
// The per-shard request order fully determines every policy decision:
// replaying a trace partitioned by shard produces byte-identical per-shard
// counters regardless of how many goroutines issue the requests.
// runner.ReplaySharded (Extension C) and the scip-serve end-to-end tests
// rest on this invariant, and internal/runner's TestModeInvariance and
// TestWorkerCountInvariance fence it; see DESIGN.md §10.
package shard
