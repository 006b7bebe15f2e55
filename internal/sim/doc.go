// Package sim replays traces against cache policies and collects the
// metrics the paper reports: object and byte miss ratios, interval series,
// and resource measurements (throughput, peak heap, CPU time proxy) used
// by Figures 9 and 11.
//
// Run replays one trace against one policy. FormatLoadInterval formats
// scip-serve's live interval line, WriteJSON writes scip-bench's BENCH.json
// and StartProfiles holds the CLIs' pprof plumbing.
package sim
