// Package policies implements the eight baseline insertion/promotion
// policies the paper compares SCIP against in Figures 8 and 9: LIP, DIP,
// PIPP, DTA, SHiP, DGIPPR, DAAIP and ASC-IP (plus BIP, DIP's
// bimodal expert). All baselines pair with the LRU victim-selection
// policy, matching the paper's setup. Policies whose original formulation
// targets set-associative CPU caches are re-expressed for a single
// byte-capacity queue; the decision signal each exploits is preserved (see
// DESIGN.md §3).
package policies
