// Package analysis is a from-scratch static-analysis framework on the
// standard library's go/parser and go/types (no golang.org/x/tools
// dependency; the module stays stdlib-only). It exists to mechanically
// enforce the two invariant classes this repository's correctness rests
// on and that have already produced real bugs:
//
//   - bit-for-bit deterministic replay: Algorithms 1+2 sample a seeded
//     MAB, so every source of nondeterminism — ambient RNGs, wall-clock
//     reads, map iteration order feeding ordered state — silently breaks
//     figure reproduction (the PR-1 LRB pruneWindow bug labelled training
//     samples in map order);
//   - lock discipline: state a mutex guards (the per-shard policy slot,
//     the daemon's body store) must only be touched with that mutex held
//     (the PR-1 traceCache map race). The lock-free stats blocks need no
//     analyzer: go vet's copylocks rejects copies of their padded atomic
//     and mutex-holding structs, and typed atomics cannot be mixed with
//     plain loads and stores.
//
// The cmd/scip-vet driver loads the module, runs every registered
// analyzer over the requested packages and exits nonzero on any
// diagnostic. Intentional exceptions are declared in the code with a
// //scip:<token> comment carrying a justification; see Analyzer.Suppress
// and DESIGN.md §7 ("Invariants").
package analysis
