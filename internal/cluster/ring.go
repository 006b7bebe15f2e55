package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Ring is a consistent-hash ring over node identities: each node owns
// VNodes points on a 64-bit hash circle, and a key belongs to the node
// owning the first point at or clockwise after the key's hash. It is the
// node-level analogue of the shard layer's key→shard mapping, with
// virtual nodes added because node counts are small (a handful of
// daemons, not a power-of-two shard array) and the ring must rebalance
// smoothly when one joins or leaves: removing a node hands each of its
// arcs to the next point's owner and moves no other key, which is the
// property the router's "ring heals" failure story and the peer-fill
// protocol both rest on (a migrated key's previous owner is, by the same
// arc argument, the next distinct node after the new one).
//
// A Ring is immutable after construction and therefore safe for
// concurrent readers with no locking. Topology changes are modelled by
// building a new Ring — routers are stateless, so "reconfigure" is
// "restart with a new node list".
type Ring struct {
	nodes  []string
	vnodes int
	points []ringPoint // sorted by (hash, node)
}

// ringPoint is one virtual node: a position on the circle and the index
// of the node that owns it.
type ringPoint struct {
	hash uint64
	node int32
}

// SplitNodes parses a comma-separated node list (scip-route -nodes,
// scip-serve -peers): entries are trimmed, blank ones dropped and
// trailing slashes removed, so a node URL is one ring identity however
// the operator typed it.
func SplitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, strings.TrimRight(n, "/"))
		}
	}
	return out
}

// NewRing builds a ring over the given node identities (typically base
// URLs; the strings are hashed verbatim, so every participant — router
// and peer-filling nodes alike — must use the identical list to agree on
// ownership). vnodes points are placed per node (min 1; 64 is a good
// default, see the skew bound pinned by TestRingSkew). Duplicate or
// empty identities are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes < 1 {
		vnodes = 1
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node identity")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node identity %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: int32(i)})
		}
	}
	// Sort by (hash, node) so equal-hash collisions across nodes still
	// order deterministically regardless of the input node order.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the node identities in construction order (the index
// space Lookup and ReplicasInto report in).
func (r *Ring) Nodes() []string { return r.nodes }

// VNodes returns the virtual-node count per node.
func (r *Ring) VNodes() int { return r.vnodes }

// KeyHash is the position of key on the circle. Keys are mixed through
// SplitMix64 rather than placed raw so dense key spaces (trace keys are
// small integers) spread uniformly between the vnode points.
func KeyHash(key uint64) uint64 { return mix64(key) }

// Lookup returns the index of the node owning key: the owner of the
// first point at or after KeyHash(key), wrapping at the top of the
// circle.
func (r *Ring) Lookup(key uint64) int {
	return int(r.points[r.firstPoint(KeyHash(key))].node)
}

// firstPoint returns the index in points of the first point with
// hash >= h, wrapping to 0 past the end.
func (r *Ring) firstPoint(h uint64) int {
	// Hand-rolled binary search: sort.Search takes a closure, which
	// escapes on the serving path.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// ReplicasInto appends to dst[:0] the indices of the first n distinct
// nodes clockwise from key's position — the key's replica set, owner
// first. n is clamped to the node count. The caller's dst is reused so
// the steady-state routing path allocates nothing once dst's capacity
// reaches n.
func (r *Ring) ReplicasInto(key uint64, n int, dst []int) []int {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	start := r.firstPoint(KeyHash(key))
	for i := 0; i < len(r.points) && len(dst) < n; i++ {
		node := int(r.points[(start+i)%len(r.points)].node)
		if !containsInt(dst, node) {
			dst = append(dst, node)
		}
	}
	return dst
}

// Replicas is the allocating convenience form of ReplicasInto.
func (r *Ring) Replicas(key uint64, n int) []int {
	return r.ReplicasInto(key, n, make([]int, 0, n))
}

// containsInt reports whether xs contains x (replica sets are tiny, so a
// linear scan beats any set structure).
func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// pointHash positions virtual node v of the named node on the circle:
// FNV-1a over "name#v", then a SplitMix64 finalising mix so short names
// differing in one byte still land far apart.
func pointHash(name string, v int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	h ^= uint64('#')
	h *= fnvPrime
	for _, c := range strconv.Itoa(v) {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finaliser: a bijective scramble used for both
// key placement and vnode placement.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
