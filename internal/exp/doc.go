// Package exp is the experiment harness: one runner per table/figure of
// the paper's evaluation, each regenerating the corresponding rows or
// series on the synthetic workload profiles. The cmd/scip-bench binary
// dispatches into this package; the repository-level benchmarks reuse the
// same runners at reduced scale. Table columns name their policies
// through internal/registry; only SCIP composites and ablation variants
// are built here.
package exp
