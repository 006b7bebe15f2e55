// Package server implements scip-serve: an HTTP cache daemon fronting
// the sharded SCIP cache (internal/shard over any policy the
// internal/registry table names, Belady aside). It is the networked
// counterpart of the in-process shard-partitioned replay
// (runner.ReplaySharded) — same cache, same accounting, with a real
// request path on top.
//
// # Key types
//
//   - Config — daemon configuration (policy, capacity, shard count,
//     origin behaviour); BuildSharded constructs the sharded cache the
//     daemon and the in-process replays share.
//   - Server — the daemon itself: New validates a Config, Handler
//     returns the http.Handler, ListenAndServe runs it with graceful
//     shutdown.
//   - Origin — the upstream interface; SyntheticOrigin (deterministic
//     in-process origin) and HTTPOrigin (a real upstream) implement it.
//
// # Request path
//
// GET/PUT/DELETE operate on /obj/{key} (decimal uint64 keys). Every
// object request performs exactly one policy Access under its shard
// lock, so the daemon's hit/miss/byte counters are governed by the
// replay invariant: per-shard access order determines every policy
// decision, and replaying a shard-partitioned trace over loopback yields
// counters byte-identical to the in-process replay (asserted by
// TestEndToEndMatchesInProcessReplay).
//
// Cache accounting is deliberately decoupled from body serving: the
// policy (keys and sizes) is the source of truth for hit/miss and byte
// ratios, while object bodies live in a per-shard bounded body store.
// Origin failures therefore affect only the response (a 502, or a stale
// body when Config.ServeStale is set), never the learning state.
// Concurrent misses on one key are coalesced per shard: a single origin
// fetch is shared by every waiter (singleflight).
//
// # Invariants
//
//   - One Access per object request, ordered per shard by the shard
//     mutex; no wall-clock input reaches the policy (logical timestamps
//     come from the t query parameter or a server-local counter).
//   - The body store never blocks the accounting path and is bounded by
//     the configured capacity; a policy hit whose body was displaced is
//     refetched from the origin and stays a hit.
//   - A stored body is never written after it is installed, so hits,
//     peer serves and coalesced waiters all read the stored slice itself.
//   - /metrics renders the internal/stats snapshot in Prometheus text
//     exposition format plus scip_server_* serving-path series.
//
// See OPERATIONS.md for the operator view (flags, endpoints, the full
// metrics catalogue, shutdown semantics) and DESIGN.md §9 for the
// architecture rationale.
package server
