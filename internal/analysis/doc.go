// Package analysis is a from-scratch static-analysis framework on the
// standard library's go/parser and go/types (no golang.org/x/tools
// dependency; the module stays stdlib-only). It exists to mechanically
// enforce bit-for-bit deterministic replay, an invariant this
// repository's correctness rests on and that has already produced real
// bugs: Algorithms 1+2 sample a seeded MAB, so every source of
// nondeterminism — ambient RNGs, wall-clock reads, map iteration order
// feeding ordered state — silently breaks figure reproduction (an early
// LRB pruneWindow bug labelled training samples in map order).
//
// Two per-file checks do this: detrand (no ambient randomness or
// wall-clock reads in any internal package but the HTTP server) and
// maporder (no map iteration feeding ordered state or output). That the
// server's clock reads never reach a cache decision is held end to end
// by the server's replay-equivalence test, not by an analyzer.
//
// Lock discipline needs no analyzer: the race tests drive every locked
// structure from concurrent goroutines under go test -race, and go vet's
// copylocks rejects copies of mutex and atomic state.
//
// The cmd/scip-vet driver loads the module, runs every registered
// analyzer over the requested packages and exits nonzero on any
// diagnostic. Intentional exceptions are declared in the code with a
// //scip:<token> comment carrying a justification; see Analyzer.Suppress
// and DESIGN.md §7 ("Invariants").
package analysis
