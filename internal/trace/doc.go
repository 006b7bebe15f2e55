// Package trace defines the on-disk trace formats and summary statistics
// used by the simulator. A trace is an ordered sequence of cache.Request
// records. Two codecs are provided: a human-readable CSV ("time,key,size"
// per line, the format used by the LRB simulator) and a compact binary
// varint format for large synthetic traces. ReadLRB reads the LRB
// simulator's public traces, and Load opens a trace file in any of the
// three formats for the CLIs.
//
// ParseBytes parses human-readable byte sizes ("256MiB") for CLI flags,
// and ComputeStats computes the per-trace statistics the generators
// validate against.
package trace
