// Package scorer decomposes cache admission into independent [0, 1]
// scorers — ZRO likelihood (SCIP's learned bimodal weight), size
// (AdaptSize's e^{−size/c}), frequency (the TinyLFU count-min sketch),
// recency (ghost-list re-reference) and reuse (an online per-size-class
// ZRO estimate) — combined by a weighted mixer whose weights are tuned
// online by the same multiplicative-weights machinery SCIP uses for its
// single bimodal probability (mab.MultiExpert + mab.AdaptiveRate).
//
// A Pipeline is a cache.InsertionPolicy: in placement mode it drives a
// cache.QueueCache, deciding MRU vs LRU placement from the mixed score.
// In filter mode a FilterCache gates admission into a plain-LRU inner
// cache, either deterministically (score ≥ θ) or probabilistically
// (score ≥ u). Both modes are selectable from the CLIs via the
// "scorer:" policy spec (see ParseSpec).
//
// Monolith equivalence: a pipeline configured with only the zro scorer
// reproduces the monolithic SCIP policy byte-identically — the embedded
// SCIP exposes its probability and its PRNG separately (InsertScore /
// Uniform), a single-scorer mixer weight is exactly 1.0, and the
// decision predicate (score > u, one draw per non-forced decision)
// matches TwoExpert.Select. The committed figure goldens pin this
// equivalence in internal/exp. Likewise a filter-mode pipeline with only
// the size scorer reproduces a frozen AdaptSize admission stream.
package scorer
