// Package gen produces synthetic CDN workloads that stand in for the
// paper's proprietary traces (CDN-T from Tencent TDC, CDN-W from the LRB
// Wikipedia trace, CDN-A from the Tencent photo store). Each generated
// trace preserves the structural properties the SCIP experiments depend
// on: Zipf-like popularity with temporal drift, heavy-tailed log-normal
// object sizes, one-hit wonders (the source of ZROs) and short re-access
// echoes of cold objects (the source of P-ZROs). The profiles scale the
// Table-1 request and object counts down uniformly so the cache-size to
// working-set ratios of the paper's experiments are preserved.
//
// Invariant: the sequence of RNG draws is the trace. Every figure, golden
// and benchmark workload is a function of it, and TestGenerateFingerprint
// pins it with a SHA-256 over each request of several traces. The data
// structures behind the draws may change — objects carry their size, due
// echoes wait in a ring of buckets, the Zipf search starts from a guide
// table — but no draw may be added, dropped or reordered, and a draw must
// map to the same outcome.
package gen
