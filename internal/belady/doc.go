// Package belady implements Belady's MIN algorithm adapted to
// variable-sized objects: on every eviction the cached object whose next
// request lies furthest in the future is removed (repeatedly, until the
// incoming object fits). It needs the whole trace in advance and is the
// "Belady" column of Figures 8 and 10. With variable sizes this object
// MIN is a heuristic, not a lower bound: an online policy can beat it
// (Beyond Belady, PAPERS.md).
package belady
