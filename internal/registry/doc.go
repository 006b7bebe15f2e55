// Package registry is the one table from policy name to constructor.
// Every binary (scip-sim, scip-serve), the sharded front
// (server.BuildSharded) and the experiment tables (internal/exp) resolve
// policy names here, so they all accept the same names: the canonical
// display names the figure tables print (SCIP, GL-Cache, SHiP, TinyLFU,
// ASC-IP, ...), matched case-insensitively, a few aliases (ASCIP, LRUK,
// SSLRU, GLCACHE), and composable "scorer:" admission specs (see
// internal/admission/scorer).
//
// Lookup does all validation: an unknown name, a malformed scorer spec
// and Belady without a trace fail there, so the Constructor it returns
// cannot fail. Composites that embed SCIP in another policy (LRU-K-SCIP,
// LRB-SCIP, S4LRU-SCIP) and the SCIP ablation variants are experiment
// configurations, not policies, and stay in internal/exp.
package registry
