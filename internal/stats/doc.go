// Package stats provides lock-free runtime observability for the
// concurrent cache front: per-shard atomic counters (requests, hits, byte
// traffic, evictions, used bytes) and a fixed-bucket access-latency
// histogram. Writers touch only their own shard's cache-line-padded
// counter block plus the shared histogram (atomic adds, no locks), so the
// instrumentation scales with the shard count; Snapshot() reads everything
// with atomic loads and never blocks the serving path.
//
// Counter semantics: Requests/Hits/BytesRequested/BytesHit/Evictions are
// monotonically increasing totals, so interval rates are computed by
// differencing two snapshots (Snapshot.Sub). UsedBytes is a gauge holding
// the most recently observed occupancy.
//
// Snapshots feed three consumers: scip-serve's interval reporter (via
// Sub), the invariance tests that compare per-shard counters across
// replay configurations, and the Prometheus text exposition
// (WritePrometheus) scraped from the daemon's /metrics endpoint — the
// metric catalogue is documented in OPERATIONS.md.
package stats
