// Package stats provides runtime observability for the concurrent cache
// front: per-shard counters (requests, hits, byte traffic, evictions,
// used bytes) and a fixed-bucket access-latency histogram.
//
// The counters live with their writer. The sharded front keeps each
// shard's traffic totals as plain fields under the shard mutex that
// every access already holds, so writers use no atomics; a Stats block
// made by NewView reads them through one function, and Snapshot takes
// each shard lock briefly, one shard at a time, to copy the totals and
// read the policy's occupancy and eviction count. New makes a
// self-contained block, written by ObserveAccess under its own mutex.
// The latency histogram is shared by every request handler and stays
// lock-free: atomic adds to write, atomic loads to snapshot.
//
// Counter semantics: Requests/Hits/BytesRequested/BytesHit/Evictions are
// monotonically increasing totals, so interval rates are computed by
// differencing two snapshots (Snapshot.Sub). UsedBytes is a gauge holding
// the occupancy at snapshot time.
//
// Snapshots feed three consumers: scip-serve's interval reporter (via
// Sub), the invariance tests that compare per-shard counters across
// replay configurations, and the Prometheus text exposition
// (WritePrometheus) scraped from the daemon's /metrics endpoint — the
// metric catalogue is documented in OPERATIONS.md.
package stats
