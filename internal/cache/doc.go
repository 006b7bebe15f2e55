// Package cache provides the substrate shared by every caching policy in
// this repository: the request model, an intrusive byte-accounted queue,
// FIFO history (shadow) lists, and the interfaces the simulator drives.
//
// All capacities and object sizes are expressed in bytes, matching CDN
// object caches where a single queue holds variable-sized objects.
//
// Key types: Request (one access), Policy (the simulator-facing contract:
// Access reports hit/miss and performs all bookkeeping), QueueCache (the
// generic byte-accounted queue every queue-based policy builds on, with
// optional Remover invalidation), and History (the FIFO shadow lists SCIP
// learns from, kept in its QueueCache's own arena and index through the
// optional StoreSharer interface).
package cache
