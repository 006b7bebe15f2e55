package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refOwner is the brute-force reference ring: collect every vnode point,
// sort, linear-scan for the first point at or after the key's hash. The
// property tests compare Ring's binary search against it.
func refOwner(nodes []string, vnodes int, key uint64) string {
	type pt struct {
		hash uint64
		node string
		idx  int
	}
	var pts []pt
	for i, n := range nodes {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, pt{pointHash(n, v), n, i})
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].hash != pts[b].hash {
			return pts[a].hash < pts[b].hash
		}
		return pts[a].idx < pts[b].idx
	})
	h := KeyHash(key)
	for _, p := range pts {
		if p.hash >= h {
			return p.node
		}
	}
	return pts[0].node
}

func benchNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8344", i+1)
	}
	return out
}

func TestRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 64); err == nil {
		t.Error("empty identity accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 64); err == nil {
		t.Error("duplicate identity accepted")
	}
}

func TestRingSingleNode(t *testing.T) {
	r, err := NewRing([]string{"only"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key++ {
		if r.Lookup(key) != 0 {
			t.Fatalf("key %d not on the only node", key)
		}
	}
}

func TestRingLookupMatchesReference(t *testing.T) {
	nodes := benchNodes(5)
	r, err := NewRing(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		key := rng.Uint64()
		if got, want := nodes[r.Lookup(key)], refOwner(nodes, 32, key); got != want {
			t.Fatalf("key %d: Lookup %s, reference %s", key, got, want)
		}
	}
}

// TestRingNodeOrderIrrelevant pins that ownership depends on node
// identities, not on the order the list was supplied in — the property
// that lets every fleet participant build its own ring from its own copy
// of the list.
func TestRingNodeOrderIrrelevant(t *testing.T) {
	nodes := benchNodes(6)
	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shuffled, 64)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 20000; key++ {
		if nodes[a.Lookup(key)] != shuffled[b.Lookup(key)] {
			t.Fatalf("key %d: owner depends on node order", key)
		}
	}
}

// TestRingAddRemapsMinimally is the consistent-hashing contract, add
// direction: growing the ring moves keys only onto the new node.
func TestRingAddRemapsMinimally(t *testing.T) {
	nodes := benchNodes(4)
	grown := append(append([]string(nil), nodes...), "http://10.0.0.99:8344")
	before, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(grown, 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	const keys = 50000
	for key := uint64(0); key < keys; key++ {
		ob, oa := nodes[before.Lookup(key)], grown[after.Lookup(key)]
		if ob == oa {
			continue
		}
		moved++
		if oa != "http://10.0.0.99:8344" {
			t.Fatalf("key %d moved from %s to %s, not to the added node", key, ob, oa)
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the added node")
	}
	// The new node's expected share is 1/5 of the keyspace; allow wide
	// slack (vnode placement is uneven) while catching gross breakage.
	if frac := float64(moved) / keys; frac > 0.40 {
		t.Errorf("add moved %.1f%% of keys; expected about 20%%", 100*frac)
	}
}

// TestRingRemoveRemapsMinimally is the remove direction: shrinking the
// ring moves only the removed node's keys, and each moves to its arc's
// successor — the node peer-fill would have asked (see PeerClient).
func TestRingRemoveRemapsMinimally(t *testing.T) {
	nodes := benchNodes(5)
	const removed = 2
	var shrunk []string
	for i, n := range nodes {
		if i != removed {
			shrunk = append(shrunk, n)
		}
	}
	before, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRing(shrunk, 64)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for key := uint64(0); key < 50000; key++ {
		ob, oa := nodes[before.Lookup(key)], shrunk[after.Lookup(key)]
		if ob == oa {
			continue
		}
		moved++
		if ob != nodes[removed] {
			t.Fatalf("key %d moved from %s to %s though its owner stayed", key, ob, oa)
		}
		// The new owner must be the old ring's next distinct node after
		// the removed one at this key's position.
		set := before.Replicas(key, 2)
		if len(set) < 2 || set[0] != removed {
			t.Fatalf("key %d: unexpected old replica walk %v", key, set)
		}
		if oa != nodes[set[1]] {
			t.Fatalf("key %d landed on %s, successor says %s", key, oa, nodes[set[1]])
		}
	}
	if moved == 0 {
		t.Fatal("removing a node moved no keys")
	}
}

// TestRingSkew bounds the vnode load imbalance: with 64 vnodes per node
// the busiest node must stay within 2x of the mean share and the idlest
// above 0.3x. The bound is generous — it pins "vnodes spread load", not
// a precise distribution.
func TestRingSkew(t *testing.T) {
	nodes := benchNodes(8)
	r, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(nodes))
	const keys = 100000
	for key := uint64(0); key < keys; key++ {
		counts[r.Lookup(key)]++
	}
	mean := float64(keys) / float64(len(nodes))
	for i, c := range counts {
		if share := float64(c) / mean; share > 2.0 || share < 0.3 {
			t.Errorf("node %d owns %.2fx the mean share (counts %v)", i, share, counts)
		}
	}
}

func TestRingReplicas(t *testing.T) {
	nodes := benchNodes(4)
	r, err := NewRing(nodes, 32)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 2000; key++ {
		set := r.Replicas(key, 3)
		if len(set) != 3 {
			t.Fatalf("key %d: replica set %v, want 3 distinct nodes", key, set)
		}
		if set[0] != r.Lookup(key) {
			t.Fatalf("key %d: replica set %v does not start at the owner %d", key, set, r.Lookup(key))
		}
		seen := map[int]bool{}
		for _, n := range set {
			if seen[n] {
				t.Fatalf("key %d: duplicate node in replica set %v", key, set)
			}
			seen[n] = true
		}
	}
	// n clamps to the node count, and ReplicasInto reuses the scratch.
	if set := r.Replicas(7, 10); len(set) != len(nodes) {
		t.Errorf("Replicas(7, 10) = %v, want all %d nodes", set, len(nodes))
	}
	scratch := make([]int, 0, 4)
	a := r.ReplicasInto(7, 2, scratch)
	b := r.ReplicasInto(7, 2, a)
	if &a[0] != &b[0] {
		t.Error("ReplicasInto reallocated a scratch with sufficient capacity")
	}
}

func TestRingDeterminism(t *testing.T) {
	a, _ := NewRing(benchNodes(3), 64)
	b, _ := NewRing(benchNodes(3), 64)
	for key := uint64(0); key < 10000; key++ {
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %d: identical rings disagree", key)
		}
	}
}

// TestSplitNodes pins the -nodes and -peers parsing: entries are trimmed,
// blank entries dropped, and trailing slashes removed so a node URL is
// one ring identity however the operator typed it.
func TestSplitNodes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{"http://a:1,http://b:2", []string{"http://a:1", "http://b:2"}},
		{" http://a:1 ,, http://b:2 ", []string{"http://a:1", "http://b:2"}},
		{"http://a:1/,http://b:2//", []string{"http://a:1", "http://b:2"}},
	} {
		if got := SplitNodes(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitNodes(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
