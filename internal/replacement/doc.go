// Package replacement implements the victim-selection baselines the paper
// compares SCIP against in Figures 10 and 11: LRU-K, S4LRU, SS-LRU, GDSF,
// LHD, CACHEUS and GL-Cache (plain LRU lives in
// internal/cache; LRB and Belady have their own packages). Algorithms
// designed for page caches are adapted to byte-capacity object caches the
// way the CDN caching literature does: evictions repeat until the new
// object fits, and ranking-based policies evict from a small random
// sample.
package replacement
